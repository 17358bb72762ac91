"""The module side: End(T)-opposite algebra, the T-hom functor, equivalence.

H = Hom(T, -) sends the ambient category to right End(T)-modules, realised
as left modules over the opposite algebra via pre-composition action; a
verdict computes it on the quotient C/X_T (HFunctor says why).  The bridge
identities (a map is inverted by H iff its image in the quotient is
regular) and the clauses of the module-category equivalence are all
checked here with exact linear algebra.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import NotInS
from .fincat import (
    CategoryPresentation,
    Morphism,
    Obj,
    approximation,
    basis_morphisms,
    compose,
    op_morphism,
    opposite,
    postcompose_matrix,
    precompose_matrices,
    structure_constants,
)
from .linalg import Matrix, RowSpace, intertwiners
from .localization import Fraction
from .preabelian import (
    Budget,
    ClauseReport,
    DEFAULT_BUDGET,
    RankCondition,
    SearchResult,
    epi_conditions,
    last_one,
    multiplicities,
    run_clause,
    search_open_conditions,
    socle_condition,
)
from .quotient import QuotientCategory, build_quotient


def endomorphism_algebra(P: CategoryPresentation, T: Obj) -> CategoryPresentation:
    """End(T)^op as a presentation with one object, named after T.

    comp[(0, 0, 0)][a][b] is the product a * b of End(T)^op, which is b o a
    in P; a one-object presentation reads that entry as (basis b) o (basis
    a), so the presentation composes as P does on End(T).  validate_category
    of it checks that the algebra is associative and unital.
    """
    basis = P.hom_basis(T, T)
    hom, comp = structure_constants(
        P.field, [[len(basis)]], lambda i, j, k, a, b: compose(P, basis[b], basis[a]).to_vector()
    )
    return CategoryPresentation(P.field, [P.obj_name(T)], hom, comp, [P.identity(T).to_vector()])


def end_basis_actions(P: CategoryPresentation, T: Obj) -> list[tuple]:
    """(t, s, acts) for each basis element e of End(T), in flat order.

    e lies in the block from copy s of T to copy t, so - o e sends
    Hom(T_t, -) to Hom(T_s, -); acts[k] is its matrix on Hom(T_t, k) for
    every indecomposable k.
    """
    copies = T.copies()
    return [
        (t, s, precompose_matrices(P, P.basis_morphism(i, j, a)))
        for t, j in enumerate(copies)
        for s, i in enumerate(copies)
        for a in range(P.hom_dim(i, j))
    ]


class GammaModule:
    """Hom(T, X) with the pre-composition action of End(T)^op.

    Hom(T, X) is the sum of the Hom(T_s, X) over the copies s of T, and
    positions[s] lists where Hom(T_s, X) sits in the flat order.  A basis
    element of End(T) in the block T_s -> T_t acts from Hom(T_t, X) to
    Hom(T_s, X) and by zero elsewhere; copy_actions holds (t, s, matrix)
    for each, in the basis order of End(T), built from end_actions, which
    is end_basis_actions(P, T).
    """

    def __init__(self, P: CategoryPresentation, T: Obj, X: Obj, end_actions: list[tuple]):
        self.P = P
        self.T = T
        self.X = X
        off, dims = P.hom_layout(T)
        xs = X.copies()
        # Hom(T, X) is the sum of the Hom(T, k) over X's copies k
        starts = list(itertools.accumulate((dims[k] for k in xs), initial=0))
        self.dim = starts[-1]
        self.positions = [
            [p for x0, k in zip(starts, xs) for p in range(x0 + off[k][s], x0 + off[k][s] + P.hom_dim(i, k))]
            for s, i in enumerate(T.copies())
        ]
        self.copy_actions = [
            (t, s, Matrix.block_diagonal(P.field, [acts[k] for k in xs]))
            for t, s, acts in end_actions
        ]


class HFunctor:
    """Hom(T, -) from a presentation to Gamma-modules.

    A verdict builds it on the quotient Q = C/X_T with T_Q =
    qc.project_obj(T), which is the functor Hom_C(T, -) induces on Q:

    - For each summand t of T and each kept x, factoring_subspace(C, t, x,
      X_T) is 0, as Hom(T, X_T) = 0.  So rep_coords[(t, x)] is every
      coordinate, and Hom_Q(t, x) is Hom_C(t, x) with the same basis.
    - A composite through T's summands, t -> t' -> x or t -> x -> y, lands
      in such a space, so the quotient's structure constants there are C's
      own: projecting a vector with no factoring part leaves it as it is.
    - So postcompose_matrix(Q, f, T_Q) equals postcompose_matrix(C,
      qc.lift(f), T) entry for entry, and module(X) has the dimension,
      positions and copy_actions of module(qc.lift_obj(X)) built on C.

    An HFunctor lives for one verdict, and so do its tables: H of each map,
    the inverse of H of each denominator, the dimension of each module Hom
    space, and FULL's kept roofs (realize_module_map says what those
    hold).  None goes on a presentation.
    """

    def __init__(self, P: CategoryPresentation, T: Obj):
        self.P = P
        self.T = T
        self._modules: dict[tuple, GammaModule] = {}
        self._matrices: dict[Morphism, Matrix] = {}
        self._inverses: dict[Morphism, Matrix | None] = {}  # r -> H(r)^-1, None where H(r) is not invertible
        self._hom_dims: dict[tuple, int] = {}  # (X, Y) -> dim of module_maps(X, Y)
        self._roofs: dict[tuple, tuple] = {}  # (x, *budget.search_fields) -> realize_module_map's (A_x, r_x)

    @cached_property
    def end_actions(self) -> list[tuple]:
        return end_basis_actions(self.P, self.T)

    def module(self, X: Obj) -> GammaModule:
        if X.mult not in self._modules:
            self._modules[X.mult] = GammaModule(self.P, self.T, X, self.end_actions)
        return self._modules[X.mult]

    def mor_matrix(self, f: Morphism) -> Matrix:
        """Matrix of Hom(T, source f) -> Hom(T, target f), built once per map
        f for FAITHFUL's quotient half, FULL's solves and h_fraction."""
        m = self._matrices.get(f)
        if m is None:
            m = self._matrices[f] = postcompose_matrix(self.P, f, self.T)
        return m

    def images(self, A: Obj, Y: Obj) -> list[list]:
        """The flattened H-images of the basis of Hom(A, Y)."""
        return [_flat(self.mor_matrix(g)) for g in self.P.hom_basis(A, Y)]

    def module_maps(self, X: Obj, Y: Obj) -> list[Matrix]:
        """module_hom_space(H X, H Y); its dimension is kept per (X, Y)."""
        maps = module_hom_space(self.module(X), self.module(Y))
        self._hom_dims[(X, Y)] = len(maps)
        return maps

    def module_hom_dim(self, X: Obj, Y: Obj) -> int:
        """dim Hom(H X, H Y), read from module_maps' table when it is there."""
        d = self._hom_dims.get((X, Y))
        return len(self.module_maps(X, Y)) if d is None else d

    def preimage(self, X: Obj, Y: Obj, phi: Matrix) -> Morphism | None:
        """Some f in Hom(X, Y) with H(f) = phi, or None when phi is not in
        H's image, from one reduction.

        The rows [H(b_a) | e_a], b_a running over the unit basis of Hom(X,
        Y), are put in echelon form.  Reducing [phi | 0] leaves
        [phi - sum c_a H(b_a) | -c] with zeros at every pivot.  The pivots
        in the first part are those of the span of the H(b_a), so that
        part is phi's canonical representative modulo H's image, 0 exactly
        when phi is in it, and then f = sum c_a b_a.  Where FAITHFUL holds
        the H(b_a) are independent, so f is the one preimage.
        """
        P, want = self.P, _flat(phi)
        images = self.images(X, Y)
        units = Matrix.identity(P.field, len(images)).data
        space = RowSpace.from_rows(P.field, len(want) + len(images), map(operator.add, images, units))
        rest = space.reduce(want + [P.field.zero] * (space.width - len(want)))
        if any(rest[: len(want)]):
            return None
        return Morphism.from_coords(P, X, Y, [P.field.neg(c) for c in rest[len(want) :]])

    def inverse(self, r: Morphism) -> Matrix | None:
        """H(r)^-1, or None where H(r) is not invertible; computed once per
        map r for h_fraction."""
        if r not in self._inverses:
            self._inverses[r] = self.mor_matrix(r).inverse()
        return self._inverses[r]


def in_s(H: HFunctor, f: Morphism) -> bool:
    """Membership in the inverted class: H(f) is a module isomorphism."""
    m = H.mor_matrix(f)
    return m.nrows == m.ncols and m.rank() == m.nrows


def h_fraction(H: HFunctor, F) -> Matrix:
    """H(numerator) o H(denominator)^{-1}."""
    inv = H.inverse(F.denom)
    if inv is None:
        raise NotInS("fraction denominator is not inverted by Hom(T, -)")
    return H.mor_matrix(F.num) * inv


def module_hom_space(M: GammaModule, N: GammaModule) -> list[Matrix]:
    """Basis of the matrices Phi with Phi * am = an * Phi for every action pair.

    Phi commutes with the idempotent of each copy s of T, so it is the sum
    of blocks phi_s: Hom(T_s, X) -> Hom(T_s, Y).  A basis element of End(T)
    in the block T_s -> T_t relates two of them, phi_s * a = b * phi_t, so
    the blocks solve one intertwiner system whose vertices are T's copies,
    and the basis is the one intertwiners gives for it.  For indecomposable
    X and Y the unknowns of the blocks are the row-major entries of Phi, so
    that basis is the one kernel_basis gives for the flat system.  Where no
    copy of T meets both modules, every block is empty and the basis is
    empty, so no system is built.
    """
    f = M.P.field
    src = [len(cols) for cols in M.positions]
    tgt = [len(rows) for rows in N.positions]
    if not any(map(operator.mul, src, tgt)):
        return []
    relations = [(t, s, a, b) for (t, s, a), (_, _, b) in zip(M.copy_actions, N.copy_actions)]
    # entries[u] is the (row, column) of Phi that unknown u of the block system is
    entries = [(r, c) for rows, cols in zip(N.positions, M.positions) for r in rows for c in cols]
    out = []
    for v in intertwiners(f, src, tgt, relations):
        data = [[f.zero] * M.dim for _ in range(N.dim)]
        for (r, c), x in zip(entries, v):
            data[r][c] = x
        out.append(Matrix(f, N.dim, M.dim, data))
    return out


# -- the equivalence verifier ---------------------------------------------------


@dataclass
class EquivalenceReport(ClauseReport):
    witnesses: dict = dc_field(default_factory=dict)


def _flat(m: Matrix) -> list:
    return [a for row in m.data for a in row]


def _leg_sources(Q: CategoryPresentation, X: Obj) -> list[Obj]:
    """Each A from which a map into X can be regular as far as dimensions
    go.

    Epi needs dim Hom(A, Z) >= dim Hom(X, Z) and mono needs dim Hom(Z, A) <=
    dim Hom(Z, X) for every Z: exactly the sources that the shape test of
    search_open_conditions does not certify empty.  dim Hom(X, -) is X's
    hom_layout row in Q, the floor, and dim Hom(-, X) its row in Q^op, the
    ceiling.  The list depends on Q and X only, so it is enumerated once
    per X and kept on Q.
    """
    sources = Q._leg_sources.get(X.mult)
    if sources is None:
        op = opposite(Q)
        mults = multiplicities(Q._dim, Q.hom_layout(X)[1], op._dim, op.hom_layout(X)[1])
        sources = Q._leg_sources[X.mult] = [Obj(mult) for mult in mults]
    return sources


def _regular_conditions(Q: CategoryPresentation, leg, A: Obj, X: Obj) -> list[RankCondition]:
    """Rank conditions under which leg(m): A -> X is regular (epi and mono).

    leg must be linear in the searched morphism m; it is built once per
    tried m.  On Q's side decided by scan_properties, one rank answers
    both (socle_condition).  Elsewhere they are is_epi's Yoneda conditions
    in Q and in Q^op, where mono is epi.  Either way a tried m meets them
    exactly when leg(m) is regular.
    """
    if Q._socle is not None:
        return [socle_condition(Q, leg, A, X)]
    op = opposite(Q)
    g = last_one(leg)
    return epi_conditions(Q, g, X) + epi_conditions(op, lambda m: op_morphism(op, g(m)), A)


def _regular_roofs(Q: CategoryPresentation, X: Obj, space, leg, budget: Budget, salt: str):
    """(A, h) for each leg source A of X whose search finds h.

    h is searched in space(A), a list of morphisms out of A, so that leg(h):
    A -> X is regular; leg must be linear in h.  The search for A is seeded
    by f"{salt}:{A.mult}", so a skipped source changes no other witness.
    """
    for A in _leg_sources(Q, X):
        subspace = space(A)
        if not subspace:
            continue
        conditions = _regular_conditions(Q, leg, A, X)
        vecs = [b.to_vector() for b in subspace]
        res = search_open_conditions(Q, A, subspace[0].target, vecs, conditions, budget, salt=f"{salt}:{A.mult}")
        if res.status == SearchResult.FOUND:
            yield A, res.witness


def realize_module_map(H: HFunctor, x: int, y: int, phi: Matrix, budget: Budget = DEFAULT_BUDGET):
    """A fraction F: x => y with h_fraction(F) = phi, or None (certified).

    H lives on the quotient Q.  A denominator is a regular r: A -> x, A
    running over the leg sources of x in order, such that phi o H(r) is in
    the image of H on Hom_Q(A, y); the numerator f solves H(f) = phi o H(r),
    by the one solve H.preimage, which also decides the image rule below.
    One rule spares the walk, reading a table kept on H for the verdict.

    The image rule.  When phi = H(f) for some f in Hom_Q(x, y), phi o H(r)
    = H(f o r) is in that image for every A and every r: A -> x.  So the
    denominator space is all of Hom_Q(A, x), whose echelon basis is the unit
    basis Q.hom_basis(A, x): every such phi walks the same spaces in the
    same order, and stops at the same source A_x, the first leg source with
    a regular map into x (x itself has one, its identity).  The searches
    before it certify empty, and with no map to find every draw misses, so
    A_x does not depend on the salt.  The first such phi of x runs that walk
    with its own salt, and its roof (A_x, r_x) is kept per (x,
    *budget.search_fields); every later one returns [r_x, f o r_x] where
    its own salt would search A_x again, and could only find a roof there
    or run out of budget.  The H-image of [r_x, f o r_x] is H(f) o H(r_x) o H(r_x)^-1 =
    phi; the check below still computes it, and a kept roof whose fraction
    misses phi means H's data is inconsistent, so it raises NotInS.

    Maps outside the image walk the leg sources with their own denominator
    spaces.  Such a map never stops at A = x when dim End_Q(x) = 1, as in
    every C(A_n) quotient: a regular endomorphism of x is then a nonzero
    scalar c, and c phi in H's image would put phi there.
    """
    Q = H.P
    X, Y = Q.single(x), Q.single(y)
    field = Q.field
    salt = f"full:{x}:{y}"

    f = H.preimage(X, Y, phi)
    if f is not None:
        key = (x, *budget.search_fields)
        roof = H._roofs.get(key)
        if roof is None:
            roof = next(_regular_roofs(Q, X, lambda A: Q.hom_basis(A, X), lambda r: r, budget, salt), None)
            if roof is None:
                return None
            H._roofs[key] = roof
        r = roof[1]
        F = Fraction(Q, r, compose(Q, f, r))
        if h_fraction(H, F) != phi:
            raise NotInS("the kept roof's fraction is not mapped to the module map by Hom(T, -)")
        return F

    def denominators(A):
        """Basis of the r in Hom(A, x) with phi o H(r) in H's image on
        Hom(A, y).

        Hom(A, x) is nonzero: the floor of a leg source forces it.
        """
        cols = [_flat(phi * H.mor_matrix(r)) for r in Q.hom_basis(A, X)]
        unknowns = cols + [[field.neg(a) for a in v] for v in H.images(A, Y)]
        mat = Matrix.from_columns(field, len(cols[0]), unknowns)
        proj = RowSpace.from_rows(field, len(cols), [v[: len(cols)] for v in mat.kernel_basis()])
        return [Morphism.from_vector(Q, A, X, v) for v in proj.rows]

    for A, r in _regular_roofs(Q, X, denominators, lambda r: r, budget, salt):
        f = H.preimage(A, Y, phi * H.mor_matrix(r))
        if f is None:
            continue
        F = Fraction(Q, r, f)
        if h_fraction(H, F) == phi:
            return F
    return None


def _faithful_clause(P: CategoryPresentation, T: Obj, qc: QuotientCategory, H: HFunctor):
    """Clause body: the kernel of Hom_C(T, -) is exactly the maps factoring
    through X_T, per basis morphism of C, and H is faithful on each Hom
    space of the quotient.

    The first loop reads C's own data: postcompose_matrix(P, f, T) of every
    basis morphism f: i -> j against qc.f_spaces, the maps factoring through
    X_T.  A map with i or j in X_T = x_t_objects(P, T), which is every f
    with (i, j) not kept in qc.f_spaces, passes by definition: Hom(T, i) = 0
    or Hom(T, j) = 0 makes Hom_C(T, f) zero, and f factors through its own
    source or target.  Its case is counted and not tested.  The second loop
    asks that the H-images of the basis of each Hom_Q(x, y) be independent.
    """
    for i, j, a, f in basis_morphisms(P):
        rs = qc.f_spaces.get((i, j))
        yield
        if rs is not None and postcompose_matrix(P, f, T).is_zero() != rs.contains(f.to_vector()):
            return f"kernel mismatch at basis ({P.objects[i]} -> {P.objects[j]}, {a})"
    Q = H.P
    for x, y in itertools.product(range(Q.n), repeat=2):
        vecs = H.images(Q.single(x), Q.single(y))
        if vecs and RowSpace.from_rows(Q.field, len(vecs[0]), vecs).dim != len(vecs):
            return f"H-image dimension mismatch on ({Q.objects[x]}, {Q.objects[y]})"


def _full_clause(H: HFunctor, budget: Budget, witnesses: list):
    """Clause body: every nonzero module map between images of
    indecomposables is realised by a fraction.

    Each realisation appends (source, target, whether its denominator is not
    an identity) to witnesses.
    """
    Q = H.P
    for x, y in itertools.product(range(Q.n), repeat=2):
        for phi in H.module_maps(Q.single(x), Q.single(y)):
            if phi.is_zero():
                continue
            yield
            try:
                F = realize_module_map(H, x, y, phi, budget)
            except NotInS as e:
                return f"inconsistent functor data: {e}"
            if F is None:
                return f"unrealised module map {Q.objects[x]} -> {Q.objects[y]}"
            witnesses.append((Q.objects[x], Q.objects[y], F.denom.source != F.denom.target))


def _projectives_clause(H: HFunctor, budget: Budget):
    """Clause body: the localised projectives are exactly add T up to
    isomorphism, and End dimensions agree.

    It runs in the quotient Q, where H lives.  The approximation of x by T's
    summands in Q is the projection of the one in C: the Hom spaces and
    composites it reads are C's own (see HFunctor).  For each x, whether the
    localised image of the approximation p: T_0 -> x is split epi
    (_fraction_split_epi, a search) is compared with whether x is
    localised-isomorphic to an object of add T.

    That second answer is one rank: x is isomorphic to an object of add T
    exactly when H(p) is bijective (in_s).
    - (<=) Where FAITHFUL holds, a bijective H(p) makes p epi and mono:
      g p = 0 gives H(g) H(p) = 0, so H(g) = 0 and g = 0, and likewise on
      the other side.  So p is regular, [p] is an isomorphism x ~ T_0 of
      the localisation, and T_0 is in add T.
    - (=>) Let H be defined on the localisation, [r, f] going to H(f)
      H(r)^-1 as h_fraction computes it, which needs H to invert every
      regular map.  Where scan_properties decided Q's side and soc Gamma
      is T's summands, Q._socle having T's support, this holds: H(f) is
      bijective exactly when Hom(Z, f) is, Z the sum of T's summands,
      which by preabelian._socle_answers' lemma is exactly when f is
      regular.  Elsewhere it is the premise FULL's h_fraction reads too.
      Then x ~ W with W in add T gives H(x) ~ H(W), a projective module.
      H(p) is onto, as p is an add T-approximation.  It is right-minimal:
      by Yoneda every endomorphism of H(T_0) is H(e) for an e in End(T_0),
      and H(p) H(e) = H(p) gives p e = p, as H is one to one on Hom(T_0,
      x) by Yoneda, so e is invertible, p being right-minimal.  So H(p) is
      a projective cover of the projective H(x), which is bijective.

    End dimensions are compared pair by pair over T's summands: dim
    Hom_Q(T_s, T_t) = dim Hom_C(T_s, T_t) against dim Hom(H T_s, H T_t).
    Both sides are additive in each argument, so dim End(T) and dim End(H
    T) are the same weighted sums of these.  Every pair agrees by Yoneda: H
    T_s is the projective e_s End(T), and Hom(e_s End(T), H T_t) = Hom(T_s,
    T_t); so a pair that differs names where the module data is wrong.
    FULL has filled these pairs in H's module Hom table; only a pair it did
    not reach is computed here.
    """
    Q = H.P
    tsupp = sorted(H.T.support())
    for x in range(Q.n):
        p = approximation(Q, tsupp, Q.single(x))
        split = _fraction_split_epi(Q, p, budget)
        in_add_t = x in tsupp or in_s(H, p)
        yield
        if split != in_add_t:
            return f"localised projectivity mismatch at {Q.objects[x]}"
    for s, t in itertools.product(tsupp, repeat=2):
        dT = Q.hom_dim(s, t)
        dMod = H.module_hom_dim(Q.single(s), Q.single(t))
        if dT != dMod:
            return f"End dimension mismatch on ({Q.objects[s]}, {Q.objects[t]}): {dT} vs {dMod}"


def verify_equivalence(
    P: CategoryPresentation,
    T: Obj,
    qc: QuotientCategory | None = None,
    budget: Budget = DEFAULT_BUDGET,
    H: HFunctor | None = None,
) -> EquivalenceReport:
    """Certified clauses of the equivalence with mod End(T)^op.

    H is Hom(T, -) on the quotient (see HFunctor).  FAITHFUL: the kernel of
    Hom_C(T, -) on each Hom space is exactly the maps factoring through X_T,
    and H is faithful on the quotient.  FULL: every module homomorphism
    between images of indecomposables is realised by a fraction.
    PROJECTIVES: the localised projectives are exactly add T, and End
    dimensions agree.  Each runs through run_clause: one out of budget does
    not stop the rest.
    """
    qc = qc or build_quotient(P, T)
    H = H or HFunctor(qc.presentation, qc.project_obj(T))
    report = EquivalenceReport(witnesses={"full": []})
    report.clauses["faithful"] = run_clause(_faithful_clause(P, T, qc, H))
    report.clauses["full"] = run_clause(_full_clause(H, budget, report.witnesses["full"]))
    report.clauses["projectives"] = run_clause(_projectives_clause(H, budget))
    return report


def _fraction_split_epi(Q: CategoryPresentation, qa: Morphism, budget: Budget) -> bool:
    """Split-epi test for the localised image of qa: T0 -> X.

    The identity of X factors through [qa] iff some g: B -> T0 with
    regular composite qa o g exists, B running over the leg sources of X.
    """
    X = qa.target
    roofs = _regular_roofs(
        Q, X, lambda B: Q.hom_basis(B, qa.source), lambda g: compose(Q, qa, g), budget, f"split:{X.mult}"
    )
    return next(roofs, None) is not None
