"""Preabelian structure checks and constructions on finite presentations.

The central primitive is a certified search for an element of a linear
subspace of a Hom space subject to maximal-rank (Zariski-open) conditions.
Kernels, cokernels, and every projectivity/regularity witness reduce to it.

Certification, over Q and F_p alike: a failed random phase falls back to
exact grid evaluation.  A minor of size r in coefficients that enter
linearly has degree at most r in each variable, so evaluating on the grid
{0..r}^d decides whether the condition is satisfiable; the product
polynomial argument then yields a deterministic joint witness on the grid
{0..sum r_i}^d.  Over F_p a grid of p or more values is all of F_p, and
scanning it is exhaustive.  A certified negative is therefore a theorem
about the instance, not a timeout.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field as dc_field, fields

from .errors import BoundsExceeded, InternalInconsistency, NoCokernel, NoKernel, ShapeError
from .fincat import (
    CategoryPresentation,
    Morphism,
    Obj,
    basis_morphisms,
    compose,
    covers,
    op_morphism,
    opposite,
    postcompose_matrix,
    precompose_matrices,
    precompose_matrix,
    split_rows,
    stack_cols,
    _word_generators,
)
from .linalg import Matrix, PrimeField, RowSpace, block_diagonal_kernel_basis


@dataclass
class Budget:
    """Search and scan limits; the multiplicity bounds themselves are proven."""

    seed: int = 1797
    retries: int = 10
    coeff_base: int = 4
    grid_cap: int = 500_000
    scan_random_per_pair: int = 2
    scan_pairs_cap: int = 400
    scan_double_objects: int = 4

    @property
    def search_fields(self) -> tuple:
        """(seed, retries, coeff_base, grid_cap): every field a certified
        search reads, so the budget part of each kept search's key."""
        return (self.seed, self.retries, self.coeff_base, self.grid_cap)

    @classmethod
    def from_dict(cls, d: dict) -> "Budget":
        """A budget from config values; ValueError names a key it rejects.

        Values are ints, integral floats or ASCII decimal strings; a bool or
        a fraction is rejected, not truncated.  Every limit but the seed must
        be non-negative, and grid_cap, scan_pairs_cap and coeff_base must be
        positive.
        """
        b = cls()
        keys = {f.name for f in fields(cls)}
        for k, v in d.items():
            if k not in keys:
                raise ValueError(f"unknown budget key {k!r}")
            try:
                if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
                    raise TypeError
                v = int(v.encode("ascii") if isinstance(v, str) else v)  # int() reads any script's digits
            except (TypeError, ValueError):
                raise ValueError(f"budget {k} must be an integer, got {v!r}") from None
            least = 1 if k in ("grid_cap", "scan_pairs_cap", "coeff_base") else 0
            if k != "seed" and v < least:
                raise ValueError(f"budget {k} must be at least {least}, got {v}")
            setattr(b, k, v)
        return b


DEFAULT_BUDGET = Budget()


# -- epi / mono / regular ---------------------------------------------------


def is_epi(Q: CategoryPresentation, f: Morphism) -> bool:
    """Epi iff precomposition with f is injective into every Hom(-, Z).

    Injectivity into Hom(X, k) needs dim Hom(Y, k) <= dim Hom(X, k), which
    decides many non-epis before any matrix is built.  Answers are kept on
    Q for one verdict: run_verification empties the table when it returns.

    Where Hom(X, Y) is one-dimensional, its nonzero maps are nonzero
    multiples of one another, and g o (s f) = s (g o f) with s invertible,
    so they are all epi or all not.  Their answer is kept once, under
    (X, Y), beside each map's own.
    """
    answer = Q._epis.get(f)
    if answer is None:
        X, Y = f.source, f.target
        dX, dY = Q.hom_layout(X)[1], Q.hom_layout(Y)[1]
        line = sum(map(operator.mul, dX, Y.mult)) == 1 and not f.is_zero()
        answer = Q._epis.get((X, Y)) if line else None
        if answer is None:
            answer = all(map(operator.le, dY, dX)) and all(
                not m.ncols or m.rank() == m.ncols for m in precompose_matrices(Q, f)
            )
            if line:
                Q._epis[(X, Y)] = answer
        Q._epis[f] = answer
    return answer


def is_mono(Q: CategoryPresentation, f: Morphism) -> bool:
    """Mono iff epi in the opposite presentation."""
    op = opposite(Q)
    return is_epi(op, op_morphism(op, f))


def is_regular(Q: CategoryPresentation, f: Morphism) -> bool:
    return is_epi(Q, f) and is_mono(Q, f)


def keep_regular(Q: CategoryPresentation, r: Morphism):
    """Keep r as epi in Q and its twin as epi in Q^op, where is_regular
    reads them: for a search witness r whose conditions are exactly
    is_epi's rank conditions in Q and in Q^op."""
    op = opposite(Q)
    Q._epis[r] = op._epis[op_morphism(op, r)] = True


def solve_on_basis(P: CategoryPresentation, X: Obj, Y: Obj, m: Matrix, want):
    """Some g in Hom(X, Y) with m (g as a coordinate vector) = want, or None.

    m is a linear map on Hom(X, Y) in to_vector coordinates, such as a pre-
    or post-composition matrix, or several of them stacked.
    """
    sol = m.solve(want)
    return None if sol is None else Morphism.from_vector(P, X, Y, sol)


def solve_two_sided_inverse(Q: CategoryPresentation, f: Morphism):
    """Some g with g o f = id and f o g = id, or None.

    An invertible f has exactly one left inverse, so g is the left inverse
    the solve finds, kept only when it is a right inverse too.
    """
    g = factors_through_map(Q, Q.identity(f.source), f)
    return g if g is not None and compose(Q, f, g) == Q.identity(f.target) else None


# -- the open-condition search engine -----------------------------------------


class RankCondition:
    """Require rank(builder(m)) >= required for the searched morphism m.

    builder must be linear in the coefficients of m for certification to be
    sound; every condition used here is a pre- or post-composition matrix.
    """

    def __init__(self, builder, required: int):
        self.builder = builder
        self.required = required

    def holds(self, m: Morphism) -> bool:
        if self.required <= 0:
            return True
        return self.builder(m).rank() >= self.required


class SearchResult:
    FOUND = "found"
    CERTIFIED_EMPTY = "certified-empty"

    def __init__(self, status: str, witness: Morphism | None = None):
        self.status = status
        self.witness = witness


def last_one(fn):
    """fn with a one-entry memo keyed by its argument object.

    The rank conditions of a search are all asked of the same tried
    morphism, so conditions built on one such fn share one call per try.
    """
    memo = [None, None]

    def call(m):
        if memo[0] is not m:
            memo[:] = m, fn(m)
        return memo[1]

    return call


def _combine(Q, X, Y, vecs, coeffs) -> Morphism:
    """The morphism X -> Y with coordinates sum_i coeffs[i] * vecs[i]; the
    zero map when vecs is empty."""
    fld = Q.field
    add, mul = fld.add, fld.mul
    out = [fld.zero] * (len(vecs[0]) if vecs else Q.hom_space_dim(X, Y))
    for c, v in zip(coeffs, vecs):
        if c:
            c = fld.of(c)
            out = [add(a, mul(c, x)) for a, x in zip(out, v)]
    return Morphism.from_coords(Q, X, Y, out)


def epi_conditions(Q: CategoryPresentation, leg, X: Obj) -> list[RankCondition]:
    """Rank conditions under which leg(m), a map into X, is epi.

    One condition per indecomposable z with d = dim Hom(X, z) > 0: - o
    leg(m) has rank d on Hom(X, z).  leg must be linear in the searched
    morphism m; the conditions share one precompose_matrices pass per tried
    m.
    """
    pre = last_one(lambda m: precompose_matrices(Q, leg(m)))
    return [RankCondition(lambda m, z=z: pre(m)[z], d) for z, d in enumerate(Q.hom_layout(X)[1]) if d]


def search_open_conditions(
    Q: CategoryPresentation,
    X: Obj,
    Y: Obj,
    subspace: list[list],
    conditions: list[RankCondition],
    budget: Budget,
    salt: int | str,
) -> SearchResult:
    """Find m: X -> Y in the span of subspace satisfying all rank
    conditions, certified.

    subspace is a list of coordinate vectors of Hom(X, Y), in to_vector
    order.  Returns FOUND with a witness, CERTIFIED_EMPTY when no element of
    the subspace can satisfy them, or raises BoundsExceeded.  Each tried
    element is a combination of those vectors and becomes a morphism once.
    The phases run in this order, each only when the ones before it decided
    nothing:

    1. budget.retries random combinations from one generator seeded by
       f"{budget.seed}:{salt}:{d}", each drawn only when its try comes up;
       an all-zero draw is not tried, since by linearity of the builders it
       meets no condition of positive rank;
    2. the shape test: a condition whose required rank exceeds the smaller
       side of its matrix certifies empty.  No random try can meet such a
       condition and the test draws no randomness, so running it after the
       random phase changes no outcome; it only spares the found searches
       the matrices it builds;
    3. one grid per condition, then the joint grid (or, past grid_cap, more
       random tries, which go on with the random phase's stream): {0..r}^d
       for a condition of rank r and {0..D}^d for D the sum of the ranks,
       or all of F_p^d once r or D is at least p.

    A rank-r condition is a nonzero r x r minor, of degree at most r in each
    coefficient, and such a polynomial does not vanish on all of S^d when
    |S| > r (Alon 1999).  So a miss on a condition's grid certifies, as does
    a miss on all of F_p^d, and for d = 0 each grid is the zero map alone;
    otherwise the product of the minors, of degree at most D in each
    coefficient, has a witness on the joint grid.  With
    D < p the first witness of F_p^d in lexicographic order lies in
    {0..D}^d: if x_i > D is the first coordinate of a witness x above D, the
    product with x_1..x_{i-1} fixed is nonzero at x, so it is nonzero at a
    point of {0..D}^(d-i+1), which gives a witness before x.
    """
    d = len(subspace)
    live = [c for c in conditions if c.required > 0]
    if not live:
        return SearchResult(SearchResult.FOUND, Q.zero_morphism(X, Y))

    rng = random.Random(f"{budget.seed}:{salt}:{d}")
    for attempt in range(budget.retries):
        radius = budget.coeff_base ** (1 + attempt // 3)
        coeffs = [rng.randint(-radius, radius) for _ in range(d)]
        if any(coeffs):  # by linearity a zero draw meets no live condition
            m = _combine(Q, X, Y, subspace, coeffs)
            if all(c.holds(m) for c in live):
                return SearchResult(SearchResult.FOUND, m)

    # impossibility by shape: rank can never exceed min dimension
    zero = Q.zero_morphism(X, Y)
    for c in live:
        probe = c.builder(zero)
        if c.required > min(probe.nrows, probe.ncols):
            return SearchResult(SearchResult.CERTIFIED_EMPTY)

    p = Q.field.p if isinstance(Q.field, PrimeField) else None

    def grid(r):
        return range(r + 1 if p is None or r < p else p)

    for c in live:
        values = grid(c.required)
        if len(values) ** d > budget.grid_cap:
            raise BoundsExceeded(f"certification grid {len(values)}^{d} exceeds the cap")
        tries = (_combine(Q, X, Y, subspace, coeffs) for coeffs in itertools.product(values, repeat=d))
        if not any(map(c.holds, tries)):
            return SearchResult(SearchResult.CERTIFIED_EMPTY)

    values = grid(sum(c.required for c in live))
    if len(values) ** d > budget.grid_cap:
        for attempt in range(4 * budget.retries):
            radius = budget.coeff_base ** (2 + attempt // 4)
            coeffs = [rng.randint(-radius, radius) for _ in range(d)]
            m = _combine(Q, X, Y, subspace, coeffs)
            if all(c.holds(m) for c in live):
                return SearchResult(SearchResult.FOUND, m)
        raise BoundsExceeded(f"joint grid {len(values)}^{d} exceeds the cap")
    for coeffs in itertools.product(values, repeat=d):
        m = _combine(Q, X, Y, subspace, coeffs)
        if all(c.holds(m) for c in live):
            return SearchResult(SearchResult.FOUND, m)
    if len(values) == p:
        return SearchResult(SearchResult.CERTIFIED_EMPTY)
    raise InternalInconsistency("joint grid missed a guaranteed witness")


# -- kernels and cokernels -----------------------------------------------------


def multiplicities(down, floor, up, ceiling) -> list[tuple]:
    """Every m with sum_i m_i*down[i] >= floor and sum_i m_i*up[i] <= ceiling.

    The inequalities are entrywise and the vectors come in (sum,
    lexicographic) order.  Every entry is non-negative, as a dimension is,
    and up[i][i] >= 1, as dim End(i) is, so the ceiling bounds each m_i.

    A row whose up[i] does not fit under the ceiling once has m_i = 0, so
    only the other rows are enumerated and the zeros are written back;
    fixed zeros leave the order of the vectors as it is.  A ceiling with a
    negative entry admits no m at all, not even m = 0.
    """
    if min(ceiling, default=0) < 0:
        return []
    kept = [i for i, row in enumerate(up) if all(map(operator.le, row, ceiling))]
    down_k = [down[i] for i in kept]
    # last[z]: the last kept row that raises coordinate z, or -1 if none does
    last = [max((r for r, row in enumerate(down_k) if row[z] > 0), default=-1) for z in range(len(floor))]
    found = []
    _extend(down_k, [up[i] for i in kept], last, [], list(floor), list(ceiling), found)
    out = []
    for m in found:
        full = [0] * len(up)
        for i, mi in zip(kept, m):
            full[i] = mi
        out.append(tuple(full))
    out.sort(key=sum)  # stable: lexicographic within each sum
    return out


def _extend(down, up, last, mult, need, room, out):
    """Append to out each completion of the prefix mult; need and room are
    what is left of the floor and the ceiling.

    A prefix is dropped once a coordinate still below the floor has no row
    left that can raise it; with no row left, that is the floor test itself.
    """
    i = len(mult)
    if any(a > 0 and r < i for a, r in zip(need, last)):
        return
    if i == len(up):
        out.append(tuple(mult))
        return
    mult.append(0)
    while min(room, default=0) >= 0:  # a larger m_i only lowers the room
        _extend(down, up, last, mult, need, room, out)
        mult[i] += 1
        need = [a - b for a, b in zip(need, down[i])]
        room = [a - b for a, b in zip(room, up[i])]
    mult.pop()


def cokernel(Q: CategoryPresentation, f: Morphism, budget: Budget = DEFAULT_BUDGET):
    """Cokernel of f by complete bounded search, or None (certified).

    The candidate target M is pinned by the exact dimension counts
    dim Hom(M, Z) = dim Hom(Y, Z) - rank(- o f) forced on any epi weak
    cokernel; the map c is then a generic element of {c : c o f = 0} subject
    to the per-object injectivity conditions.  An accepted c is an epi weak
    cokernel, hence a cokernel.  The candidates M depend only on Q and the
    target counts, so each list is enumerated once and kept on Q.  The
    counts and every candidate's subspace come from one precompose_matrices
    pass over f.

    Each candidate's search is kept in Q._searches for one verdict, keyed by
    (Y.mult, M.mult, the subspace vectors, *budget.search_fields).  That key
    covers everything the search reads: its domain Y and codomain M, its
    subspace, the budget fields, its conditions and its salt.  The condition
    on Z_z asks rank(- o c on Hom(M, Z_z)) >= targets[z], and every
    candidate M meets the targets exactly (floor = ceiling), so targets[z] =
    dim Hom(M, Z_z) is fixed by M; the salt is a function of M.mult.  So
    two cokernel searches that reach one key run the same search, and the
    second reads the first's result, its witness object included; an
    equal witness would be that object anyway, as a presentation keeps one
    object per map.  A repeated call with
    the same f and budget fields makes the same pass, so it reaches the
    same keys and returns the same M and witness object, or None.
    run_verification empties the table when it returns.  BoundsExceeded
    propagates and is not kept, so a search that ran out of budget runs
    again.

    Two answers need no search:
    - f epi, as is_epi's table may already hold: the search would return
      (0, Y -> 0).  Every target is 0, so the one candidate is M = 0, its
      conditions are empty, and the search returns the zero map at once.
      The pass decides whether f is epi, as f is epi exactly when every
      target is 0, and keeps that answer.
    - f = 0: (Y, 1_Y), a cokernel of 0.  The search would return some
      automorphism of Y instead; no report reads which one.
    A FOUND witness c meets exactly is_epi's rank conditions on Hom(M, -),
    so it is kept as epi.
    """
    Y = f.target
    if Q._epis.get(f):
        return _zero_cokernel(Q, Y)
    if f.is_zero():
        return (Y, Q.identity(Y))
    blocks = precompose_matrices(Q, f)  # - o f on each Hom(Y, Z_k)
    targets = [m.ncols - m.rank() if m.ncols else 0 for m in blocks]
    if f not in Q._epis:
        Q._epis[f] = not any(targets)
    if not any(targets):
        return _zero_cokernel(Q, Y)
    key = tuple(targets)
    candidates = Q._multiplicities.get(key)
    if candidates is None:
        mults = multiplicities(Q._dim, targets, Q._dim, targets)
        candidates = Q._multiplicities[key] = [Obj(mult) for mult in mults]
    for M in candidates:
        # subspace {c : c o f = 0}: the kernel of precompose_matrix(Q, f, M)
        kills_f = block_diagonal_kernel_basis(Q.field, [blocks[k] for k in M.copies()])
        search = (Y.mult, M.mult, tuple(map(tuple, kills_f)), *budget.search_fields)
        res = Q._searches.get(search)
        if res is None:
            salt = f"cokernel:{M.mult}"
            conditions = epi_conditions(Q, lambda c: c, M)
            res = Q._searches[search] = search_open_conditions(Q, Y, M, kills_f, conditions, budget, salt)
            if res.status == SearchResult.FOUND:
                Q._epis[res.witness] = True
        if res.status == SearchResult.FOUND:
            return (M, res.witness)
    return None


def _zero_cokernel(Q: CategoryPresentation, Y: Obj):
    """(0, Y -> 0): the cokernel of an epi into Y."""
    Z = Obj((0,) * Q.n)
    return (Z, Q.zero_morphism(Y, Z))


def kernel(Q: CategoryPresentation, f: Morphism, budget: Budget = DEFAULT_BUDGET):
    """Kernel of f: the cokernel search in the opposite presentation."""
    op = opposite(Q)
    res = cokernel(op, op_morphism(op, f), budget)
    if res is None:
        return None
    K, c_op = res
    return (K, op_morphism(Q, c_op))


# -- limit squares ---------------------------------------------------------------


@dataclass(frozen=True)
class LimitSquare:
    """Commuting square c o a = d o b with a: A->B, b: A->C, c: B->D, d: C->D.

    Frozen: a kept square is shared by every caller that reaches its key.
    """

    A: Obj
    B: Obj
    C: Obj
    D: Obj
    a: Morphism
    b: Morphism
    c: Morphism
    d: Morphism

    def check_commutes(self, Q: CategoryPresentation) -> bool:
        return compose(Q, self.c, self.a) == compose(Q, self.d, self.b)


def pullback(Q: CategoryPresentation, c: Morphism, d: Morphism, budget: Budget = DEFAULT_BUDGET) -> LimitSquare:
    """Kernel-based pullback of c: B -> D and d: C -> D.

    The square of (c, d) comes from kernel(Q, [c | -d], budget) and is kept
    on Q for one verdict under (c, d, *budget.search_fields):
    run_verification empties the table when it returns.  No earlier call
    changes it, and a square that cannot be built is not kept.  pushout
    keeps its squares here too, in Q^op.

    Three squares are built without a kernel, in any category:
    - d = 1_D: (B, 1_B, c).  A cone (u, v) has v = d v = c u, so it
      factors through u, and only through u, as a = 1_B.
    - c = 1_D: (C, d, 1_C), the same with the maps exchanged.
    - c = d with c mono: (B, 1_B, 1_B).  A cone (u, v) has c u = c v, so
      u = v, and it factors through u alone.
    """
    if c.target != d.target:
        raise ShapeError("pullback needs a common target")
    key = (c, d, *budget.search_fields)
    sq = Q._squares.get(key)
    if sq is None:
        B, C, D = c.source, d.source, c.target
        one = Q.identity(D) if D in (B, C) else None
        if d == one:
            a, b = Q.identity(B), c
        elif c == one:
            a, b = d, Q.identity(C)
        elif c == d and is_mono(Q, c):
            a = b = Q.identity(B)
        else:
            res = kernel(Q, stack_cols(Q, [c, d.scale(-1)]), budget)
            if res is None:
                raise _no_square("pullback")
            # the legs are the projections composed with the kernel map
            a, b = split_rows(Q, res[1], [B, C])
        sq = LimitSquare(a.source, B, C, D, a, b, c, d)
        if not sq.check_commutes(Q):
            raise InternalInconsistency("pullback square does not commute")
        Q._squares[key] = sq
    return sq


def pushout(Q: CategoryPresentation, a: Morphism, b: Morphism, budget: Budget = DEFAULT_BUDGET) -> LimitSquare:
    """Cokernel-based pushout of a: A -> B and b: A -> C: the pullback in Q^op.

    So pullback's squares without a kernel come dual: b = 1_A gives
    (B, 1_B, a), a = 1_A gives (C, b, 1_C), and a = b epi gives (B, 1_B, 1_B).
    """
    if a.source != b.source:
        raise ShapeError("pushout needs a common source")
    op = opposite(Q)
    try:
        sq = pullback(op, op_morphism(op, a), op_morphism(op, b), budget)
    except NoKernel:
        raise _no_square("pushout") from None
    c, d = op_morphism(Q, sq.a), op_morphism(Q, sq.b)
    return LimitSquare(a.source, a.target, b.target, sq.A, a, b, c, d)


def factors_through_map(Q: CategoryPresentation, f: Morphism, c: Morphism):
    """Some g with g o c = f (c and f sharing their source), or None."""
    return solve_on_basis(Q, c.target, f.target, precompose_matrix(Q, c, f.target), f.to_vector())


def lifts_through_epi(Q: CategoryPresentation, f: Morphism, c: Morphism):
    """Some g with c o g = f (c and f sharing their target), or None: the
    twin of a factorisation of f^op through c^op in Q^op."""
    op = opposite(Q)
    g = factors_through_map(op, op_morphism(op, f), op_morphism(op, c))
    return None if g is None else op_morphism(Q, g)


# -- coimage / image factorisation -------------------------------------------------


@dataclass
class Factorisation:
    """f = v o ftilde o u with u a cokernel of ker f and v a kernel of coker f."""

    coim: Obj
    im: Obj
    u: Morphism
    ftilde: Morphism
    v: Morphism


def coim_im_factorise(Q: CategoryPresentation, f: Morphism, budget: Budget = DEFAULT_BUDGET) -> Factorisation:
    def found(res, error, message):
        if res is None:
            raise error(message)
        return res

    kj = found(kernel(Q, f, budget), NoKernel, "morphism has no kernel")[1]
    ck = found(cokernel(Q, f, budget), NoCokernel, "morphism has no cokernel")[1]
    Coim, u = found(cokernel(Q, kj, budget), NoCokernel, "kernel inclusion has no cokernel")
    Im, v = found(kernel(Q, ck, budget), NoKernel, "cokernel map has no kernel")
    w = factors_through_map(Q, f, u)
    if w is None:
        raise InternalInconsistency("f does not factor through its coimage")
    ftilde = lifts_through_epi(Q, w, v)
    if ftilde is None:
        raise InternalInconsistency("coimage map does not factor through the image")
    if compose(Q, v, compose(Q, ftilde, u)) != f:
        raise InternalInconsistency("coim-im factorisation does not recompose")
    return Factorisation(Coim, Im, u, ftilde, v)


# -- morphism families for scans ------------------------------------------------


@dataclass
class MorphismFamily:
    """The maps a scan ranges over, classified.

    cokernel_maps and kernel_maps are filled by the preabelian clause of
    scan_properties: the cokernel and kernel maps of the basis morphisms.
    """

    all: list = dc_field(default_factory=list)
    epis: list = dc_field(default_factory=list)
    monos: list = dc_field(default_factory=list)
    regulars: list = dc_field(default_factory=list)
    cokernel_maps: list = dc_field(default_factory=list)
    kernel_maps: list = dc_field(default_factory=list)


def build_morphism_family(Q: CategoryPresentation, budget: Budget = DEFAULT_BUDGET) -> MorphismFamily:
    """Basis morphisms, identities, and seeded random maps, classified."""
    fam = MorphismFamily()
    rng = random.Random(f"{budget.seed}:family")
    singles = [Q.single(i) for i in range(Q.n)]
    pairs = []
    for i in range(Q.n):
        for j in range(i, Q.n):
            pairs.append(Q.single(i) + Q.single(j))
    objects = singles + pairs[: budget.scan_double_objects]
    for X in objects:
        for Y in objects:
            d = Q.hom_space_dim(X, Y)
            if d == 0:
                continue
            items = []
            if X.total == 1 and Y.total == 1:
                items.extend(Q.hom_basis(X, Y))
            for _ in range(budget.scan_random_per_pair):
                vec = [Q.field.of(rng.randint(-2, 2)) for _ in range(d)]
                items.append(Morphism.from_vector(Q, X, Y, vec))
            for m in items:
                if m.is_zero():
                    continue
                fam.all.append(m)
    for i in range(Q.n):
        fam.all.append(Q.identity(Q.single(i)))
    for m in fam.all:
        e, mo = is_epi(Q, m), is_mono(Q, m)
        if e:
            fam.epis.append(m)
        if mo:
            fam.monos.append(m)
        if e and mo:
            fam.regulars.append(m)
    return fam


# -- property scans -----------------------------------------------------------------


@dataclass
class ClauseResult:
    status: str  # "pass" | "fail" | "bounds-exceeded"
    checked: int = 0
    detail: str = ""


@dataclass
class ClauseReport:
    """Clause name -> ClauseResult, in the order the clauses ran."""

    clauses: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.clauses.values())


@dataclass
class PropertyReport(ClauseReport):
    family: MorphismFamily = dc_field(default_factory=MorphismFamily)


def run_clause(body) -> ClauseResult:
    """Run one bounded clause.

    body is a generator that yields once per checked case and returns the
    failure detail, or None when every case held; a case counts when the
    body yields for it, so a body that yields before its test counts the
    failing case.  Running out of budget is not a theorem failure: the
    clause is then bounds-exceeded with the cases counted so far.
    """
    checked = 0
    try:
        while True:
            next(body)
            checked += 1
    except StopIteration as stop:
        detail = stop.value
    except BoundsExceeded as e:
        return ClauseResult("bounds-exceeded", checked, str(e))
    return ClauseResult("pass", checked) if detail is None else ClauseResult("fail", checked, detail)


def _unit(units: dict, f: Morphism):
    """(u, key): u is f scaled so that its first nonzero coordinate is one (a
    zero map is its own), key is (source.mult, target.mult, u's coordinates);
    both kept in units, one dict per scan.

    A leg clause asks only whether a leg is epi or mono.  A pair that a
    rule of _leg_answers decides needs no square (see _leg_clause); for
    every other pair, one square answers that for a whole class of pairs.
    For nonzero scalars s, t, ker [s x, -t y] is diag(1/s, 1/t) composed
    with ker [x, -y], so the legs of the pullback of (s x, t y) are nonzero
    multiples of those of (x, y), and any other kernel differs by an
    isomorphism of A.  Exchanging x and y exchanges the legs.  Epi and mono
    are unchanged by all three, so the scan, not pullback, orders each
    class: it asks for the square of the unit representatives with the
    smaller key first.  Not by hash: a map hashes by identity, which
    differs from run to run.
    """
    entry = units.get(f)
    if entry is None:
        fld = f.P.field
        lead = next((c for c in f.to_vector() if c), fld.one)
        u = f if lead == fld.one else f.scale(fld.inv(lead))
        entry = units[f] = (u, (f.source.mult, f.target.mult, tuple(u.to_vector())))
    return entry


def _leg_pairs(given, others):
    """The pairs (x, y), x in given and y in others, with y into x's target.

    In the order of given, then of others; each x looks up its partners in
    an index of others by target instead of testing every y.
    """
    partners = {}
    for y in others:
        partners.setdefault(y.target, []).append(y)
    return ((x, y) for x in given for y in partners.get(x.target, ()))


def _no_square(limit: str):
    """The error of a pullback (pushout) whose difference map has no kernel
    (cokernel)."""
    what, error = ("kernel", NoKernel) if limit == "pullback" else ("cokernel", NoCokernel)
    return error(f"difference map has no {what}: presentation is not preabelian here")


def _sink_maps(P: CategoryPresentation):
    """g_z for each z with an irreducible map into it: the stack_cols of the
    basis maps w -> z, w != z, that _word_generators lists."""
    gens = _word_generators(P)
    for z in range(P.n):
        maps = [P.basis_morphism(w, z, a) for w in range(P.n) if w != z for a in gens.get((w, z), ())]
        if maps:
            yield stack_cols(P, maps)


def _every_sink_map_has_a_kernel(P: CategoryPresentation, budget: Budget) -> bool:
    return all(is_mono(P, g) or kernel(P, g, budget) is not None for g in _sink_maps(P))


def _has_every_kernel(P: CategoryPresentation, budget: Budget) -> bool:
    """Whether every map of P is known to have a kernel.

    True exactly when every indecomposable has a one-dimensional End, no
    two indecomposables are isomorphic, and every sink map is mono or has a
    kernel.  A sink-map kernel search out of budget leaves the answer
    unknown, so False.

    Let Z_1, ..., Z_n be the indecomposables, each with End = k.  Z_w and
    Z_z are isomorphic exactly when some composite Z_w -> Z_z -> Z_w is not
    0: it is then a nonzero scalar, so Z_w is a summand of Z_z, which is
    indecomposable.  So with the gate, P is Krull-Schmidt (Krause,
    "Krull-Schmidt categories and projective covers", 2015, Cor. 4.4) with
    Z_1 + ... + Z_n basic, and Yoneda, X -> Hom(-, X), makes P equivalent
    to proj Gamma, Gamma = End(Z_1 + ... + Z_n) a finite-dimensional
    algebra with simples S_1, ..., S_n.
    - f: X -> Y has a kernel exactly when the functor ker Hom(-, f) is
      representable, which in proj Gamma means projective.  Every finitely
      presented module is coker Hom(-, f) for some f, with ker Hom(-, f)
      its second syzygy.  So P has every kernel exactly when every module
      has projective dimension at most 2, that is gl.dim Gamma <= 2, which
      is the largest pd S_z (Auslander, "Representation dimension of Artin
      algebras", 1971).
    - The sink map g_z: E_z -> Z_z (the minimal right almost split map;
      Auslander-Reiten-Smalo, "Representation theory of Artin algebras",
      1995) presents S_z: the image U of Hom(-, g_z) is the radical
      rad(-, Z_z).  With the gate, rad(Z_w, Z_z) is Hom(Z_w, Z_z) for
      w != z and 0 for w = z, and rad^2(Z_w, Z_z) is spanned by the
      composites through a third indecomposable, whose complement
      _word_generators lists.  So rad(-, Z_z) = U + rad^2(-, Z_z), and as
      U is closed under precomposition, rad = U + rad^m for every m; the
      radical of Gamma is nilpotent, so U = rad.
    - pd S_z <= 2 exactly when the second syzygy ker Hom(-, g_z) of this
      presentation is projective (Schanuel's lemma: any presentation
      will do), that is when g_z has a kernel.  A mono g_z has kernel 0,
      and a z with no irreducible map into it has S_z = Hom(-, Z_z).
    So P has every kernel exactly when every g_z is mono or has a kernel.
    Without the gate the maps _word_generators lists need not be sink
    maps: an isomorphism Z_w -> Z_z is not radical, and a two-dimensional
    End can have a nonzero radical or no split idempotents.
    """
    gate = all(P.hom_dim(i, i) == 1 for i in range(P.n)) and not any(
        c for (w, z, v), table in P.comp.items() if v == w != z for row in table for vec in row for c in vec
    )
    try:
        return gate and _every_sink_map_has_a_kernel(P, budget)
    except BoundsExceeded:
        return False


def _leg_answers(P: CategoryPresentation, budget: Budget):
    """answer(x, y, has): whether the leg opposite x of the pullback of
    (x, y) in P passes has (is_epi, is_mono or is_regular), with the tables
    of one scan.

    Three rules answer without a limit square (proofs in _leg_clause).
    The first, asked first: has is is_mono and P has every kernel
    (_has_every_kernel, decided on first use, so once per call of
    _leg_answers); the answer is then x's.  The other two: y is split epi,
    or y factors through x.  Both ask whether a map g is in the
    image of f o -: y factors through x when y is in x's image, and f is
    split epi when the identity is in its own.  f o - acts on the component
    of g at each copy of its source alone, so g is in the image when each
    component is in the image on Hom(Z, source f), Z the copy's
    indecomposable.  That image is the same for f and its nonzero multiples,
    so it is built once per (unit representative of f, Z) and kept as True
    when full, else as a RowSpace: most questions cost one rank.  Whether y
    is split, and whether the square exists when y factors through x, are
    kept per map.  Every other leg is read off the square of x's and y's
    unit representatives, in _unit's order.

    Each rule and each square reads x and y only up to nonzero scalars, so
    an answer is kept per (unit of x, unit of y, has).  An exception is not
    kept: a missing square or a search out of budget raises again.
    """
    gate = all(P.hom_dim(i, i) == 1 for i in range(P.n))
    units, images, split, exists, answers = {}, {}, {}, {}, {}

    @functools.cache
    def every_kernel():
        return _has_every_kernel(P, budget)

    def image(f, z):
        im = images.get((f, z))
        if im is None:
            m = postcompose_matrix(P, f, P.single(z))
            full = m.rank() == m.nrows
            im = images[(f, z)] = full or RowSpace.from_rows(P.field, m.nrows, zip(*m.data))
        return im

    def in_image(f, g):
        # g's component at source copy s is column s of its blocks
        for z, part in zip(g.source.copies(), zip(*g.blocks)):
            im = image(f, z)
            if im is not True and not im.contains([c for block in part for c in block]):
                return False
        return True

    def is_split(y, uy):
        answer = split.get(y)
        if answer is None:
            answer = split[y] = is_epi(P, y) and (gate or is_mono(P, y)) and in_image(uy, P.identity(y.target))
        return answer

    def answer(x, y, has):
        (ux, kx), (uy, ky) = _unit(units, x), _unit(units, y)
        holds = answers.get((ux, uy, has))
        if holds is None:
            holds = answers[(ux, uy, has)] = decide(x, ux, kx, y, uy, ky, has)
        return holds

    def decide(x, ux, kx, y, uy, ky, has):
        if has is is_mono and every_kernel():
            return is_mono(P, x)
        if is_split(y, uy):
            return has(P, x)
        if in_image(ux, y):
            # the leg is split epi, and has the other property exactly when x does
            found = exists.get(ux)
            if found is None:
                found = exists[ux] = is_mono(P, x) or kernel(P, ux, budget) is not None
            if not found:
                raise _no_square("pullback")
            return has is is_epi or is_mono(P, x)
        leg = pullback(P, uy, ux, budget).a if ky <= kx else pullback(P, ux, uy, budget).b
        return has(P, leg)

    return answer


def _leg_clause(Q: CategoryPresentation, P: CategoryPresentation, answer, given, others, prop: str, budget: Budget):
    """Clause body: the leg opposite x is prop for the first scan_pairs_cap
    pairs (x, y) of _leg_pairs(given, others), pullbacks in P.

    P is Q or opposite(Q), answer is _leg_answers(P, budget), and prop is
    "epi", "mono" or "regular" as Q sees it.  A failure names the property
    and the pair of maps in Q.  A missing limit square fails the clause.

    answer decides a pair without a square when the property is mono and
    P has every kernel, when y factors through x, or when y is split epi.
    Take x: B -> D and y: C -> D, and a pullback (A, a, b) with y a = x b,
    a: A -> C the leg opposite x.  In an additive category a is mono
    exactly when x is: if x is mono and a u = 0, then x b u = y a u = 0,
    so b u = 0, and u = 0 as the only map into A over the cone (0, 0); if
    a is mono and x h = 0, the cone (0, h) gives u with a u = 0 and
    b u = h, so u = 0 and h = 0.
    - Mono, with every kernel in P (_has_every_kernel proves it from the
      sink maps): ker [x | -y] exists, so the square does, and its leg is
      mono exactly when x is.  x's answer is the square's, with no square.
    - y = x s for some s: C -> B.  The cone (1_C, s) gives v with a v = 1_C,
      so a is split epi: it is always epi, and mono (or regular) exactly
      when x is mono.  With phi = [[1, s], [0, 1]], an automorphism of
      B + C, [x | -y] phi = [x | 0], so ker [x | -y] = phi (ker x + 1_C):
      the square exists exactly when ker x does, and is (C, s, 1_C) when x
      is mono.  No splitting is needed.  An x that is split epi, x t = 1_D,
      is such a case, as y = x (t y); so is an invertible x.
    - y split epi, y s = 1_D.  If a is epi and h x = 0, then h y a =
      h x b = 0, so h y = 0 and h = h y s = 0.  If x is epi and g a = 0,
      the cones (s x, 1_B) and (1_C - s y, 0) give u and v with a u = s x
      and a v = 1_C - s y; then g s x = 0, so g s = 0, and g = g s y +
      g a v = 0.  So a is epi, mono and regular exactly when x is.  The
      square exists when idempotents split: write the idempotent
      e = 1_C - s y as i p with p i = 1_K; then (B + K, a = s x pr_B +
      i pr_K, b = pr_B) is a pullback, since y e = 0 gives y a = x b, and a
      cone (c, u) factors through (u, p c) and, as p s = p e s = 0, through
      no other map.  Idempotents split when every indecomposable of P has a
      one-dimensional End: that End is the field, a local ring, so P, whose
      objects are finite sums of indecomposables, is Krull-Schmidt (Krause,
      "Krull-Schmidt categories and projective covers", 2015, Cor. 4.4).
      Every C(A_n) quotient passes, as Hom spaces between indecomposables
      of C(A_n) are at most one-dimensional.  Elsewhere y must also be
      mono, so invertible (s y = 1_C follows from y s y = y); then K = 0
      and no splitting is needed.

    On P = opposite(Q), given and others are twins of Q's maps, and this is
    Q's pushout clause: a pullback of the twins of x: D -> B and y: D -> C
    in Q^op is a pushout of x and y in Q with the same leg opposite x, and
    a map is epi in Q^op exactly when it is mono in Q.  So prop is asked as
    its dual, regular as regular; the rules read every cokernel, y = s x
    and y split mono in Q, and Q^op is Krull-Schmidt when Q is.  A missing square is a
    missing cokernel of Q's difference map, reported as a missing pushout.
    """
    epi, mono = (is_epi, is_mono) if P is Q else (is_mono, is_epi)  # exchanged in Q^op
    has = {"epi": epi, "mono": mono, "regular": is_regular}[prop]
    try:
        for x, y in itertools.islice(_leg_pairs(given, others), budget.scan_pairs_cap):
            holds = answer(x, y, has)
            yield
            if not holds:
                if P is not Q:
                    x, y = op_morphism(Q, x), op_morphism(Q, y)
                return (
                    f"leg not {prop} for {Q.obj_name(x.source)} -> {Q.obj_name(x.target)}"
                    f" with {Q.obj_name(y.source)} -> {Q.obj_name(y.target)}"
                )
    except NoKernel as e:
        return f"no limit square: {e if P is Q else _no_square('pushout')}"


def _preabelian_clause(Q: CategoryPresentation, fam: MorphismFamily, budget: Budget):
    """Clause body: kernel and cokernel existence over all basis morphisms.

    The cokernel and kernel maps found go to fam.cokernel_maps and
    fam.kernel_maps.
    """
    searches = (("cokernel", cokernel, fam.cokernel_maps), ("kernel", kernel, fam.kernel_maps))
    for i, j, a, f in basis_morphisms(Q):
        for what, search, maps in searches:
            res = search(Q, f, budget)
            if res is None:
                return f"no {what} for basis ({Q.objects[i]} -> {Q.objects[j]}, {a})"
            maps.append(res[1])
        yield


def scan_properties(Q: CategoryPresentation, budget: Budget = DEFAULT_BUDGET) -> PropertyReport:
    """Bounded exhaustive check of preabelian / semi-abelian / integral clauses.

    The report carries the morphism family the clauses ran over, including
    the cokernel and kernel maps the preabelian clause found.
    """
    fam = build_morphism_family(Q, budget)
    report = PropertyReport(family=fam)
    report.clauses["preabelian"] = run_clause(_preabelian_clause(Q, fam, budget))
    if report.clauses["preabelian"].status != "pass":
        # the leg clauses need every kernel and cokernel of a basis morphism
        return report

    op = opposite(Q)
    pull, push = _leg_answers(Q, budget), _leg_answers(op, budget)
    twins = [op_morphism(op, f) for f in fam.all]
    for name, given, prop in (
        ("pullback_cokernel_leg", fam.cokernel_maps, "epi"),
        ("pullback_epi_leg", fam.epis, "epi"),
        ("pullback_mono_leg", fam.monos, "mono"),
        ("pullback_regular_leg", fam.regulars, "regular"),
        ("pushout_kernel_leg", fam.kernel_maps, "mono"),
        ("pushout_mono_leg", fam.monos, "mono"),
        ("pushout_epi_leg", fam.epis, "epi"),
        ("pushout_regular_leg", fam.regulars, "regular"),
    ):
        if name.startswith("pullback"):
            body = _leg_clause(Q, Q, pull, given, fam.all, prop, budget)
        else:
            # a pushout in Q is a pullback in Q^op, where the twins of kernel
            # maps, monos and epis are cokernel maps, epis and monos
            body = _leg_clause(Q, op, push, [op_morphism(op, f) for f in given], twins, prop, budget)
        report.clauses[name] = run_clause(body)
    return report


# -- projective / injective objects ---------------------------------------------------


def is_projective_object(Q: CategoryPresentation, X: Obj, family: MorphismFamily) -> bool:
    """Lifting property of X against every epi of family: each epi covers X."""
    return all(covers(Q, c, X) for c in family.epis)


def is_injective_object(Q: CategoryPresentation, X: Obj, family: MorphismFamily) -> bool:
    """Extension property of X along every mono of family: projectivity in Q^op."""
    op = opposite(Q)
    return is_projective_object(op, X, MorphismFamily(epis=[op_morphism(op, j) for j in family.monos]))
