import collections
import functools
import itertools

import pytest
from hypothesis import settings

from quotcat.fincat import CategoryPresentation, Obj, compose, opposite, split_rows
from quotcat.linalg import QQ, Matrix, RowSpace, intertwiners, unit_vector
from quotcat.localization import from_morphism
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


def identity_fraction(Q, X):
    """[id, id] at X: the identity of X in the localisation."""
    return from_morphism(Q, Q.identity(X))


def generators_into(P):
    """v -> [(w, b)]: the generators w -> v, b the basis index in Hom(w, v)."""
    into = {}
    for (w, v), bs in P.word_generators.items():
        into.setdefault(v, []).extend((w, b) for b in bs)
    return into


def injective_is_torsion_free(P, into, acts, z):
    """Whether t(I_z) = 0, by rejects from U = I_z, for P past the gate of
    preabelian._has_every_kernel and S_z in soc Gamma: the tests' oracle
    for preabelian._representing_object, which decides a side alone.
    into is generators_into(P); acts is a table P_x(g) this fills, shared
    by the z of one side.  Notation is that of
    preabelian._pullbacks_of_epis_are_epi.

    - t(I_z) by rejects.  rej(U), the common kernel of all maps U -> Gamma,
      is a submodule of U containing every submodule of U in T, as each
      such map kills it.  From U = I_z the chain U, rej(U), ... falls until
      rej(U) = U; then every map U -> Gamma is 0, U lies in T, and U =
      t(I_z) (Dickson, "A torsion theory for abelian categories", 1966).
      A nonzero submodule of I_z contains the socle S_z, which is all of
      I_z(z), one-dimensional as End(Z_z) = k.  So t(I_z) = 0 exactly when
      t(I_z)(z) = 0: z passes once U(z) = 0, which one map U -> P_x that
      is not 0 on U(z) shows, and fails when U stops falling with U(z) != 0.
    - Relations.  A family (phi_w) is natural once it is natural at each
      generator g: w -> v that P.word_generators lists: naturality passes
      to composites and sums, End(Z_w) = k, and words in the generators
      span the radical (_has_every_kernel's docstring).  So one equation
      per generator gives Hom(U, P_x) (linalg.intertwiners); where U(w) = 0
      and U(v) != 0 it still says P_x(g) phi_v = 0.
    - Order.  A map U -> P_x that is not 0 on U(z) is not 0 on soc U = S_z,
      so it is mono, as every nonzero submodule of U meets S_z.  So only an
      x with S_z in soc P_x and dim U(w) <= dim P_x(w) for every w can take
      U(z) out of rej(U); those x are asked first, and the rest only when
      none does.

    I_z(w) is Hom(Z_z, Z_w)*, on which g: w -> v acts as the transpose of
    h -> g h, and P_x(g) is h -> h g; comp gives both.  U(w) is kept in
    reduced echelon form, so a vector of U(w) has its coordinates in U(w)'s
    basis at the pivots.
    """
    fld, dim, comp = P.field, P._dim, P.comp
    zero, add, mul = fld.zero, fld.add, fld.mul
    U = {}  # w -> the RowSpace U(w) in I_z(w), for U(w) != 0
    for w in range(P.n):
        if dim[z][w]:
            U[w] = RowSpace.from_rows(fld, dim[z][w], (unit_vector(fld, dim[z][w], a) for a in range(dim[z][w])))

    def act(w, v, b, x):
        # P_x(g) for g basis b of Hom(w, v): column c is h_c o g in Hom(w, x)
        m = acts.get((w, v, b, x))
        if m is None:
            table, r, c = comp.get((w, v, x)), dim[w][x], dim[v][x]
            rows = [[table[b][k][i] for k in range(c)] if table else [zero] * c for i in range(r)]
            m = acts[(w, v, b, x)] = Matrix(fld, r, c, rows)
        return m

    def socle_to(x):
        # Hom(S_z, P_x) != 0: some h: Z_z -> Z_x with h g = 0 for each g into z
        rows = [row for w, b in into.get(z, ()) for row in act(w, z, b, x).data]
        return len(Matrix(fld, len(rows), dim[z][x], rows).kernel_basis()) > 0

    def reject_rows(x, moves, kills):
        # add to kills[v] the rows phi_v of a basis of Hom(U, P_x)
        play = [v for v in U if dim[v][x]]
        if not play:
            return  # Hom(U, P_x) = 0
        rels = [(w, v, b) for v in U for w, b in into.get(v, ()) if dim[w][x] and (dim[v][x] or w in U)]
        verts = list(dict.fromkeys(play + [u for w, v, _ in rels for u in (w, v)]))
        pos = {u: i for i, u in enumerate(verts)}
        src = [U[u].dim if u in U else 0 for u in verts]
        tgt = [dim[u][x] for u in verts]
        relations = [(pos[v], pos[w], moves[(w, v, b)], act(w, v, b, x)) for w, v, b in rels]
        offsets = list(itertools.accumulate((s * t for s, t in zip(src, tgt)), initial=0))
        for phi in intertwiners(fld, src, tgt, relations):
            for v in play:
                i, c = pos[v], U[v].dim
                kills[v].extend(phi[k : k + c] for k in range(offsets[i], offsets[i + 1], c))

    socle = [x for x in range(P.n) if dim[z][x] and socle_to(x)]
    while True:
        # U(g): U(v) -> U(w) in their bases, read at U(w)'s pivots
        moves = {}
        for v, space in U.items():
            for w, b in into.get(v, ()):
                table, target = comp.get((z, w, v)), U.get(w)
                pivots = target.pivots if target else ()
                rows = [
                    [functools.reduce(add, map(mul, table[p][b], u), zero) if table else zero for u in space.rows]
                    for p in pivots
                ]
                moves[(w, v, b)] = Matrix(fld, len(rows), space.dim, rows)
        kills = collections.defaultdict(list)  # v -> rows whose common kernel in U(v) is rej(U)(v)
        fits = [x for x in socle if all(space.dim <= dim[w][x] for w, space in U.items())]
        for x in fits:
            reject_rows(x, moves, kills)
            if any(map(any, kills[z])):
                return True
        for x in range(P.n):
            if x not in fits:
                reject_rows(x, moves, kills)
        shrunk = False
        for v, rows in kills.items():
            space = U[v]
            keep = Matrix(fld, len(rows), space.dim, rows).kernel_basis()
            if len(keep) == space.dim:
                continue
            shrunk = True
            if keep:
                basis = Matrix(fld, space.dim, space.width, space.rows)
                U[v] = RowSpace.from_rows(fld, space.width, (Matrix(fld, len(keep), space.dim, keep) * basis).data)
            else:
                del U[v]
        if not shrunk:
            return False


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
