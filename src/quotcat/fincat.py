"""Finite k-linear additive categories presented by Hom bases.

A :class:`CategoryPresentation` stores a finite list of indecomposables,
the dimension of every Hom space between them, bilinear composition as
structure constants, identity coordinates, and optionally an object-level
suspension permutation.  Objects of the additive closure are multiplicity
vectors, morphisms are block arrays of coefficient vectors.

A presentation keeps one Morphism object per value: building a map whose
source, target and coordinates are those of a kept one returns the kept
object.  So two maps of one presentation are equal exactly when they are
the same object, every table keyed by maps hits by identity, and no block
is ever written once a map is built.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import InternalInconsistency, MissingSuspension, ShapeError
from .linalg import Field, Matrix, RowSpace, unit_vector, vec_add, vec_is_zero, vec_scale


class CategoryPresentation:
    """A finite k-linear category given by Hom bases and structure constants.

    comp[(i, j, k)][a][b] is the coefficient vector (in the chosen basis of
    Hom(i, k)) of the composite (basis b of Hom(j, k)) o (basis a of
    Hom(i, j)).  Missing (i, j, k) keys mean all such composites are zero.
    """

    def __init__(
        self,
        field: Field,
        objects: list[str],
        hom_dim: dict,
        comp: dict,
        identities: list,
        sigma: list[int] | None = None,
        metadata: dict | None = None,
    ):
        self.field = field
        self.objects = list(objects)
        self.n = len(objects)
        self._index = {name: i for i, name in enumerate(objects)}
        if len(self._index) != self.n:
            raise ValueError("duplicate indecomposable names")
        self._dim = [[0] * self.n for _ in range(self.n)]
        for (i, j), d in hom_dim.items():
            self._dim[i][j] = d
        self.comp = {k: v for k, v in comp.items()}
        self.identities = [list(v) for v in identities]
        self.sigma = list(sigma) if sigma is not None else None
        if self.sigma is not None and sorted(self.sigma) != list(range(self.n)):
            raise ValueError("sigma is not a permutation")
        self.metadata = dict(metadata or {})
        self._opposite = None
        self._multiplicities = {}  # cokernel targets -> the candidate Objs of preabelian.cokernel
        self._leg_sources = {}  # X.mult -> modcat._leg_sources' Objs
        self._layouts = {}  # X.mult -> hom_layout(X)
        # one verdict long (clear_verdict_tables): they hold maps of self
        self._epis = {}  # f -> preabelian.is_epi's answer
        self._monos = {}  # f -> preabelian.is_mono's answer, on a decided side
        self._socle = None  # on a side scan_properties decided, the sum of the Z_z with S_z in soc Gamma
        self._socle_injectives = {}  # z in soc Gamma -> w with I_z = Hom(-, Z_w), or None (preabelian._representing_object)
        self._every_kernel = {}  # budget.search_fields -> preabelian._has_every_kernel's answer
        self._searches = {}  # candidate search key -> preabelian.cokernel's SearchResult
        self._squares = {}  # (c, d, *budget.search_fields) -> preabelian.pullback's LimitSquare
        self._maps = {}  # (source.mult, target.mult, coordinates) -> the one Morphism of that value
        self._identities = {}  # X.mult -> identity(X)
        self._bases = {}  # (X.mult, Y.mult) -> hom_basis(X, Y)
        self._singles = tuple(Obj(tuple(int(k == i) for k in range(self.n))) for i in range(self.n))

    def clear_verdict_tables(self):
        """Empty the epi, mono, kernel-decision, search and square tables,
        the kept maps and the identity and basis caches, and forget the
        decided socle and its representing objects, here and in the
        opposite if built.

        Their maps point back at the presentation, so tables kept past a
        verdict hold finished quotients in reference cycles until a full
        collection.

        The lifetime rule: a map built before a clear is not the object an
        equal map built after it is, and maps compare by identity, so
        nothing may compare the two or look one up in a table of the other.
        Clear only a presentation whose maps nobody keeps: run_verification
        clears the quotient it built itself, never its input.
        """
        for P in (self, self._opposite):
            if P is not None:
                tables = (P._epis, P._monos, P._every_kernel, P._searches, P._squares, P._maps, P._identities, P._bases)
                for table in tables:
                    table.clear()
                P._socle, P._socle_injectives = None, {}

    # -- basic queries ------------------------------------------------

    def index(self, name: str) -> int:
        return self._index[name]

    def hom_dim(self, i: int, j: int) -> int:
        return self._dim[i][j]

    @cached_property
    def comp_by_pair(self) -> dict:
        """The structure constants grouped by pair: (i, j) -> [(k, comp[(i, j, k)])].

        Built on first use, so a presentation that never pre-composes never
        pays for it.
        """
        out = {}
        for (i, j, k), table in self.comp.items():
            out.setdefault((i, j), []).append((k, table))
        return out

    @cached_property
    def word_generators(self) -> dict:
        """_word_generators(self), built on first use and kept, so validation,
        the sink maps and the integrality decision read one set.  Nothing
        changes comp once a presentation is built."""
        return _word_generators(self)

    # -- objects of the additive closure ------------------------------

    def obj(self, mult) -> "Obj":
        if isinstance(mult, dict):
            v = [0] * self.n
            for name, m in mult.items():
                v[self.index(name)] += m
            return Obj(tuple(v))
        return Obj(tuple(mult))

    def single(self, name_or_idx) -> "Obj":
        i = name_or_idx if isinstance(name_or_idx, int) else self.index(name_or_idx)
        return self._singles[i]

    def obj_name(self, X: "Obj") -> str:
        parts = []
        for i, m in enumerate(X.mult):
            if m == 1:
                parts.append(self.objects[i])
            elif m > 1:
                parts.append(f"{self.objects[i]}^{m}")
        return "+".join(parts) if parts else "0"

    # -- morphisms -----------------------------------------------------

    def hom_space_dim(self, X: "Obj", Y: "Obj") -> int:
        dim, ym = self._dim, Y.mult
        total = 0
        for i, mx in enumerate(X.mult):
            if mx:
                total += mx * sum(map(operator.mul, dim[i], ym))
        return total

    def hom_layout(self, X: "Obj"):
        """Block offsets and dimensions of Hom(X, k) for every indecomposable k,
        as (off, dims).

        off[k][s] is where the block of source copy s starts in Hom(X, k),
        and dims[k] is dim Hom(X, k).  Computed once per object.
        """
        layout = self._layouts.get(X.mult)
        if layout is None:
            dim = self._dim
            srcs = X.copies()
            off, dims = [], []
            for k in range(self.n):
                row, pos = [], 0
                for i in srcs:
                    row.append(pos)
                    pos += dim[i][k]
                off.append(row)
                dims.append(pos)
            layout = self._layouts[X.mult] = (off, dims)
        return layout

    def zero_morphism(self, X: "Obj", Y: "Obj") -> "Morphism":
        srcs = X.copies()
        tgts = Y.copies()
        z = self.field.zero
        blocks = [
            [[z] * self._dim[i][j] for i in srcs]
            for j in tgts
        ]
        return Morphism(self, X, Y, blocks)

    def identity(self, X: "Obj") -> "Morphism":
        """1_X, built once per multiplicity vector."""
        f = self._identities.get(X.mult)
        if f is None:
            z = self.field.zero
            copies = X.copies()
            blocks = [
                [list(self.identities[i]) if s == t else [z] * self._dim[i][j] for s, i in enumerate(copies)]
                for t, j in enumerate(copies)
            ]
            f = self._identities[X.mult] = Morphism(self, X, X, blocks)
        return f

    def basis_morphism(self, i: int, j: int, a: int) -> "Morphism":
        """Basis element a of Hom(i, j) as a morphism of single objects."""
        return self.hom_basis(self._singles[i], self._singles[j])[a]

    def hom_basis(self, X: "Obj", Y: "Obj") -> tuple:
        """All coordinate basis morphisms of Hom(X, Y), in flat order; the
        tuple is built once per pair of multiplicity vectors."""
        basis = self._bases.get((X.mult, Y.mult))
        if basis is None:
            d = self.hom_space_dim(X, Y)
            basis = tuple(Morphism.from_coords(self, X, Y, unit_vector(self.field, d, k)) for k in range(d))
            self._bases[(X.mult, Y.mult)] = basis
        return basis

    # -- suspension ----------------------------------------------------

    def require_sigma(self):
        if self.sigma is None:
            raise MissingSuspension("presentation has no suspension permutation")


def structure_constants(field: Field, dims, product) -> tuple[dict, dict]:
    """The hom and comp arguments of CategoryPresentation from a basis product.

    dims[i][j] is dim Hom(i, j), and product(i, j, k, a, b) is the coefficient
    vector of (basis b of Hom(j, k)) o (basis a of Hom(i, j)).  The table is
    filled in (i, j, k, a, b) order, one product call per entry where Hom(j,
    k) and Hom(i, k) are not zero; a table of zero composites is left out.
    A product may rely on that order: all calls for one (i, j) come in a
    row, and word_product keeps only the last (i, j)'s words.  A generated
    category passes word_product, which asks its own product only for the
    products with a generator.
    """
    m = len(dims)
    hom = {(i, j): dims[i][j] for i in range(m) for j in range(m) if dims[i][j]}
    comp = {}
    for (i, j), dij in hom.items():
        for k in range(m):
            djk, dik = dims[j][k], dims[i][k]
            if djk == 0 or dik == 0:
                continue
            table = [[product(i, j, k, a, b) for b in range(djk)] for a in range(dij)]
            if not all(vec_is_zero(field, vec) for row in table for vec in row):
                comp[(i, j, k)] = table
    return hom, comp


def word_product(field: Field, dims, identities, gens: dict, product):
    """A basis product for structure_constants that asks product(i, j, k, a,
    b) only for b in gens[(j, k)], or None if the words of gens do not span.

    Each product s o y with a generator s, y basis element a of Hom(i, j),
    is asked once, up front, where Hom(i, k) != 0.  The rest follows: a
    basis element x of Hom(j, k) is a combination of the words from j that
    _grow_words keeps (one solve per Hom space), and a word x = s o x' gives
    x o y = s o (x' o y), with x' o y known by recursion.  So for an
    associative product, as in any category, every constant is product's.
    The composites with the y of one (i, j) are kept until the next (i, j)
    is asked: structure_constants' order computes each once, and another
    order gives the same constants but computes them again.
    """
    m, zero = len(dims), field.zero
    asked = {}  # (i, j, k) -> comp[(i, j, k)] as far as it holds products s o y
    for (j, k), g in gens.items():
        for i in range(m):
            if dims[i][j] and dims[i][k]:
                asked[(i, j, k)] = [
                    [product(i, j, k, a, b) if b in g else None for b in range(dims[j][k])] for a in range(dims[i][j])
                ]
    words = _grow_words(field, dims, identities, gens, asked)
    if words is None:
        return None
    solves = []  # solves[j][k][b]: [(w, c)], basis element b of Hom(j, k) as the sum of c * word w
    for ws in words:
        into = {}
        for w, word in enumerate(ws):
            into.setdefault(word[0], []).append(w)
        solves.append({
            k: [
                [(w, c) for w, c in zip(idx, col) if c]
                for col in zip(*Matrix.from_columns(field, len(idx), [ws[w][1] for w in idx]).inverse().data)
            ]
            for k, idx in into.items()
        })

    @functools.lru_cache(maxsize=1)  # structure_constants asks every k, a and b of one (i, j) in a row
    def ends(i, j):  # [[w o y for w in the words from j] for y a basis element of Hom(i, j)]
        out = []
        for a in range(dims[i][j]):
            row = [unit_vector(field, dims[i][j], a)]  # id o y
            for k, _, parent, mid, s in words[j][1:]:
                row.append(_composite(field, asked.get((i, mid, k)), row[parent], s, [zero] * dims[i][k]))
            out.append(row)
        return out

    def basis_product(i, j, k, a, b):
        row = ends(i, j)[a]
        (w, c), *rest = solves[j][k][b]
        out = vec_scale(field, c, row[w])
        for w, c in rest:
            out = vec_add(field, out, vec_scale(field, c, row[w]))
        return out

    return basis_product


@dataclass(frozen=True)
class Obj:
    """A formal direct sum of indecomposables: a multiplicity vector.

    Equality tries identity first: maps and tables mostly share one Obj, so
    most comparisons are of an object with itself.  The hash is the
    dataclass's, hash((mult,)), so set and dict order are unchanged; it and
    the copies are computed once, at construction, as Obj is frozen.
    """

    mult: tuple

    def __post_init__(self):
        copies = ()
        for i, m in enumerate(self.mult):
            if m:
                copies += (i,) * m
        object.__setattr__(self, "_hash", hash((self.mult,)))
        object.__setattr__(self, "_copies", copies)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is Obj:
            return self.mult == other.mult
        return NotImplemented

    def __hash__(self):
        return self._hash

    def copies(self) -> tuple:
        """Indecomposable index of each copy, in block order."""
        return self._copies

    @property
    def total(self) -> int:
        return sum(self.mult)

    def is_zero(self) -> bool:
        return self.total == 0

    def __add__(self, other: "Obj") -> "Obj":
        return Obj(tuple(a + b for a, b in zip(self.mult, other.mult)))

    def support(self) -> set[int]:
        return {i for i, m in enumerate(self.mult) if m > 0}


class Morphism:
    """A map between formal sums, stored as blocks of Hom coefficients.

    blocks[t][s] is the coefficient vector of the component from source
    copy s to target copy t.  There is one object per value per
    presentation: Morphism(P, source, target, blocks) returns the map that
    P._maps keeps under (source.mult, target.mult, the to_vector
    coordinates), and builds and keeps one only if there is none.  So
    equality and hashing are Python's identity, and every holder of a value
    shares its blocks, which are never written once the map is built.  The
    table lasts as long as P's other verdict tables (clear_verdict_tables
    states the lifetime rule).  _op is its twin in the opposite
    presentation once op_morphism has built it.
    """

    __slots__ = ("P", "source", "target", "blocks", "_op")

    def __new__(cls, P: CategoryPresentation, source: Obj, target: Obj, blocks):
        key = (source.mult, target.mult, tuple(itertools.chain.from_iterable(itertools.chain.from_iterable(blocks))))
        f = P._maps.get(key)
        return cls._keep(P, source, target, blocks, key) if f is None else f

    @classmethod
    def _keep(cls, P: CategoryPresentation, source: Obj, target: Obj, blocks, key: tuple) -> "Morphism":
        """A new map, kept in P._maps under key, which P does not hold yet."""
        f = P._maps[key] = object.__new__(cls)
        f.P = P
        f.source = source
        f.target = target
        f.blocks = blocks
        f._op = None
        return f

    # -- construction / coordinates ------------------------------------

    @classmethod
    def from_vector(cls, P: CategoryPresentation, X: Obj, Y: Obj, vec) -> "Morphism":
        """The morphism with coordinates vec; ints and strings are coerced
        into P's field."""
        of = P.field.of
        return cls.from_coords(P, X, Y, [of(x) if isinstance(x, (int, str)) else x for x in vec])

    @classmethod
    def from_coords(cls, P: CategoryPresentation, X: Obj, Y: Obj, vec) -> "Morphism":
        """The morphism with coordinates vec, which are field elements
        already; its blocks are cut from vec only when P keeps no such map."""
        key = (X.mult, Y.mult, tuple(vec))
        f = P._maps.get(key)
        if f is not None:
            return f
        srcs, tgts = X.copies(), Y.copies()
        blocks = []
        pos = 0
        for j in tgts:
            row = []
            for i in srcs:
                d = P.hom_dim(i, j)
                row.append(vec[pos : pos + d])
                pos += d
            blocks.append(row)
        if pos != len(vec):
            raise ShapeError("coordinate vector has wrong length")
        return cls._keep(P, X, Y, blocks, key)

    def to_vector(self):
        out = []
        for row in self.blocks:
            for block in row:
                out.extend(block)
        return out

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "Morphism") -> "Morphism":
        self._check_parallel(other)
        f = self.P.field
        blocks = [
            [vec_add(f, b1, b2) for b1, b2 in zip(r1, r2)]
            for r1, r2 in zip(self.blocks, other.blocks)
        ]
        return Morphism(self.P, self.source, self.target, blocks)

    def scale(self, c) -> "Morphism":
        f = self.P.field
        c = f.of(c)
        blocks = [[vec_scale(f, c, b) for b in row] for row in self.blocks]
        return Morphism(self.P, self.source, self.target, blocks)

    def is_zero(self) -> bool:
        f = self.P.field
        return all(vec_is_zero(f, b) for row in self.blocks for b in row)

    def _check_parallel(self, other: "Morphism"):
        if self.P is not other.P or self.source != other.source or self.target != other.target:
            raise ShapeError("morphisms are not parallel")

    def __repr__(self):
        P = self.P
        return f"Morphism({P.obj_name(self.source)} -> {P.obj_name(self.target)})"


def basis_morphisms(P: CategoryPresentation):
    """(i, j, a, basis element a of Hom(i, j)) over every indecomposable pair."""
    for i in range(P.n):
        for j in range(P.n):
            for a in range(P.hom_dim(i, j)):
                yield i, j, a, P.basis_morphism(i, j, a)


def compose(P: CategoryPresentation, g: Morphism, f: Morphism) -> Morphism:
    """g o f: block (t, s) adds g[t][m] o f[m][s] over the middle copies m."""
    if f.P is not P or g.P is not P:
        raise ShapeError("morphisms from a different presentation")
    if f.target != g.source:
        raise ShapeError(
            f"cannot compose: target {P.obj_name(f.target)} != source {P.obj_name(g.source)}"
        )
    fld, dim, comp = P.field, P._dim, P.comp
    zero = fld.zero
    srcs = f.source.copies()
    mids = f.target.copies()
    out = []
    for t, (k, grow) in enumerate(zip(g.target.copies(), g.blocks)):
        row = []
        for s, i in enumerate(srcs):
            acc = [zero] * dim[i][k]
            if acc:
                for j, fcol, gblock in zip(mids, f.blocks, grow):
                    if fcol[s] and gblock:  # no call for a zero-dimensional Hom
                        _composite(fld, comp.get((i, j, k)), fcol[s], gblock, acc)
            row.append(acc)
        out.append(row)
    return Morphism(P, f.source, g.target, out)


def precompose_matrices(P: CategoryPresentation, f: Morphism) -> list[Matrix]:
    """Matrices of Hom(target f, k) -> Hom(source f, k), v -> v o f, one per
    indecomposable k, from one pass over the blocks of f.

    Built from the structure constants: the image of basis b of block m of
    Hom(Y, k) has, in block s of Hom(X, k), the coordinates
    sum_a f[m][s][a] * comp[(i_s, j_m, k)][a][b].  Rows and columns are in
    to_vector order.

    A block with no entries, where dim Hom(X, k) or dim Hom(Y, k) is 0, is
    the one shared Matrix.entryless of its shape, and the pass skips it.
    """
    offX, dX = P.hom_layout(f.source)
    offY, dY = P.hom_layout(f.target)
    fld = P.field
    zero, add, mul = fld.zero, fld.add, fld.mul
    data = [[[zero] * dy for _ in range(dx)] if dx and dy else None for dx, dy in zip(dX, dY)]
    by_pair = P.comp_by_pair
    srcs = f.source.copies()
    for m, (j, row) in enumerate(zip(f.target.copies(), f.blocks)):
        for s, (i, fblock) in enumerate(zip(srcs, row)):
            tables = by_pair.get((i, j))
            if tables is None or not any(fblock):
                continue
            for k, table in tables:
                rows = data[k]
                if rows is None:
                    continue
                r0, c0 = offX[k][s], offY[k][m]
                for a, fa in enumerate(fblock):
                    if not fa:
                        continue
                    for b, vec in enumerate(table[a]):
                        col = c0 + b
                        for c, rc in enumerate(vec):
                            if rc:
                                out = rows[r0 + c]
                                out[col] = add(out[col], mul(fa, rc))
    return [
        Matrix.entryless(fld, dx, dy) if rows is None else Matrix(fld, dx, dy, rows)
        for dx, dy, rows in zip(dX, dY, data)
    ]


def precompose_matrix(P: CategoryPresentation, f: Morphism, Z: Obj) -> Matrix:
    """Matrix of Hom(target f, Z) -> Hom(source f, Z), v -> v o f.

    Hom(-, Z) is the sum of Hom(-, k) over the copies k of Z, in to_vector
    order, so the matrix is block diagonal with the blocks of
    precompose_matrices.
    """
    blocks = precompose_matrices(P, f)
    return Matrix.block_diagonal(P.field, [blocks[k] for k in Z.copies()])


def postcompose_matrix(P: CategoryPresentation, f: Morphism, Z: Obj) -> Matrix:
    """Matrix of Hom(Z, source f) -> Hom(Z, target f), u -> f o u.

    Built from the structure constants like precompose_matrix: the image of
    basis a of block (m, s) of Hom(Z, X) has, in block (t, s) of Hom(Z, Y),
    the coordinates sum_b f[t][m][b] * comp[(i_s, j_m, k_t)][a][b].
    """
    off, dims = P.hom_layout(Z)
    xs, ys = f.source.copies(), f.target.copies()
    # Hom(Z, X) is the sum of the Hom(Z, j) over X's copies j, so block (m, s)
    # starts at the dimensions of the copies before m plus off[j_m][s]
    x0 = list(itertools.accumulate((dims[j] for j in xs), initial=0))
    y0 = list(itertools.accumulate((dims[k] for k in ys), initial=0))
    fld = P.field
    zero, add, mul = fld.zero, fld.add, fld.mul
    comp = P.comp
    data = [[zero] * x0[-1] for _ in range(y0[-1])]
    srcs = Z.copies()
    for t, k in enumerate(ys):
        for m, j in enumerate(xs):
            fblock = f.blocks[t][m]
            if not any(fblock):
                continue
            for s, i in enumerate(srcs):
                table = comp.get((i, j, k))
                if table is None:
                    continue
                r0, c0 = y0[t] + off[k][s], x0[m] + off[j][s]
                for a, ta in enumerate(table):
                    col = c0 + a
                    for b, fb in enumerate(fblock):
                        if not fb:
                            continue
                        for c, rc in enumerate(ta[b]):
                            if rc:
                                row = data[r0 + c]
                                row[col] = add(row[col], mul(fb, rc))
    return Matrix(fld, y0[-1], x0[-1], data)


# -- validation ---------------------------------------------------------


@dataclass
class ValidationReport:
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail):
        self.violations.append((kind, detail))

    def __str__(self):
        if self.ok:
            return "valid"
        lines = [f"{len(self.violations)} violation(s):"]
        for kind, detail in self.violations[:25]:
            lines.append(f"  {kind}: {detail}")
        if len(self.violations) > 25:
            lines.append(f"  ... and {len(self.violations) - 25} more")
        return "\n".join(lines)


def _composite(field: Field, table, u, v, out: list) -> list:
    """Add the coordinates of v o u to out and return out, for u in Hom(i, j),
    v in Hom(j, k) and table = comp[(i, j, k)].

    That is sum_{a,b} u[a] * v[b] * table[a][b]; a missing table (None)
    makes every composite zero.  This is the one bilinear product on the
    structure constants: compose, validate_category and the word builders
    call it.
    """
    if table is None:
        return out
    add, mul = field.add, field.mul
    for ua, row in zip(u, table):
        if not ua:
            continue
        for vb, vec in zip(v, row):
            if not vb:
                continue
            coeff = mul(ua, vb)
            for e, x in enumerate(vec):
                if x:
                    out[e] = add(out[e], mul(coeff, x))
    return out


def validate_category(P: CategoryPresentation) -> ValidationReport:
    """Exhaustive unit and associativity checks on the structure constants.

    The unit laws are checked on every basis element.  Associativity is
    checked on generating words (_associative_on_words) once the identity
    and unit-law checks have found nothing; if they did, or the words do not
    span, or a generator triple fails, every basis triple is checked
    (_associativity_on_basis), so the violations and their order are those
    of the full check.
    """
    rep = ValidationReport()
    f = P.field
    n, dim = P.n, P._dim
    zero = f.zero

    for i in range(n):
        if dim[i][i] < 1:
            rep.add("endomorphism-space-empty", (i,))
        idv = P.identities[i]
        if len(idv) != dim[i][i] or vec_is_zero(f, idv):
            rep.add("identity-missing", (i,))
    # unit laws: id o a = a and a o id = a for every basis element a
    for i, j in itertools.product(range(n), repeat=2):
        for a in range(dim[i][j]):
            ea = unit_vector(f, dim[i][j], a)
            if _composite(f, P.comp.get((i, j, j)), ea, P.identities[j], [zero] * dim[i][j]) != ea:
                rep.add("left-unit", (i, j, a))
            if _composite(f, P.comp.get((i, i, j)), P.identities[i], ea, [zero] * dim[i][j]) != ea:
                rep.add("right-unit", (i, j, a))
    if rep.violations or not _associative_on_words(P):
        _associativity_on_basis(P, rep)
    if P.metadata.get("two_cy") and P.sigma is not None:
        for pair in check_serre_symmetry(P):
            rep.add("serre-symmetry", pair)
    return rep


def _associativity_failures(P: CategoryPresentation, i: int, j: int, k: int, l: int, cs):
    """The basis triples (a, b, c) of Hom(i, j), Hom(j, k), Hom(k, l), c in
    cs, with (c o b) o a != c o (b o a), in (a, b, c) order.

    Both sides are sum_e comp[(i,j,k)][a][b][e] * comp[(i,k,l)][e][c] and
    sum_e comp[(j,k,l)][b][c][e] * comp[(i,j,l)][a][e], a missing table read
    as zero.
    """
    f, dim, comp = P.field, P._dim, P.comp
    gf_table, hg_table = comp.get((i, j, k)), comp.get((j, k, l))
    if (gf_table is None or (i, k, l) not in comp) and (hg_table is None or (i, j, l) not in comp):
        return
    zero = f.zero
    for a in range(dim[i][j]):
        ea = unit_vector(f, dim[i][j], a)
        for b in range(dim[j][k]):
            gf = gf_table[a][b] if gf_table else ()  # () reads as zero
            for c in cs:
                hg = hg_table[b][c] if hg_table else ()
                lhs = _composite(f, comp.get((i, k, l)), gf, unit_vector(f, dim[k][l], c), [zero] * dim[i][l])
                if lhs != _composite(f, comp.get((i, j, l)), ea, hg, [zero] * dim[i][l]):
                    yield a, b, c


def _associativity_on_basis(P: CategoryPresentation, rep: ValidationReport):
    """Add an associativity violation to rep for every failing basis triple,
    in (i, j, k, l, a, b, c) order: the full check, n^4 object quadruples."""
    dim = P._dim
    for i, j, k, l in itertools.product(range(P.n), repeat=4):
        if dim[i][j] and dim[j][k] and dim[k][l] and dim[i][l]:
            for a, b, c in _associativity_failures(P, i, j, k, l, range(dim[k][l])):
                rep.add("associativity", (i, j, k, l, a, b, c))


def _word_generators(P: CategoryPresentation) -> dict:
    """(i, j) -> G(i, j), for the pairs where it is not empty.

    G(i, j) is the basis elements of Hom(i, j), in order, that complete the
    span of the composites comp[(i, m, j)] through a third object m, m not i
    or j, and of the identity when i = j.  When every End(i) is k, as in
    C(A_n) and its quotients, they span a complement of rad^2 in the
    radical: the irreducible maps (Auslander-Reiten-Smalo 1995).
    """
    f, dim = P.field, P._dim
    spans = {}
    for (i, m, j), table in P.comp.items():
        if m == i or m == j:
            continue
        d = dim[i][j]
        rs = spans.get((i, j)) or spans.setdefault((i, j), RowSpace(f, d))
        for vec in itertools.chain.from_iterable(table):
            if rs.dim == d:
                break
            rs.add(vec)
    gens = {}
    for i, j in itertools.product(range(P.n), repeat=2):
        d = dim[i][j]
        if not d:
            continue
        rs = spans.get((i, j)) or RowSpace(f, d)
        if i == j:
            rs.add(P.identities[i])
        g = [a for a in range(d) if rs.add(unit_vector(f, d, a))]
        if g:
            gens[(i, j)] = g
    return gens


def _grow_words(field: Field, dim, identities, gens: dict, tables: dict):
    """The right-bracketed words from each object that enlarge the span, or
    None if they do not span every Hom space.

    words[i][0] is (i, identities[i], None, None, None), and each later word
    is (j, vec, parent, m, s): vec in Hom(i, j) is s o words[i][parent], s
    the coordinates of a basis element of Hom(m, j) that gens lists, with
    tables[(i, m, j)] as the structure constants.  The words are grown one
    generator at a time from each kept word until no Hom(i, j) grows, so the
    words kept into each j are a basis of Hom(i, j).
    """
    n = len(dim)
    leaving = {}  # m -> [(j, s)]: the generators out of m
    for (m, j), g in gens.items():
        leaving.setdefault(m, []).extend((j, unit_vector(field, dim[m][j], a)) for a in g)
    out = []
    for i in range(n):
        spans = {i: RowSpace.from_rows(field, dim[i][i], [identities[i]])}
        words = [(i, identities[i], None, None, None)]
        frontier = [0]
        while frontier:
            p = frontier.pop()
            m, w = words[p][:2]
            for j, s in leaving.get(m, ()):
                d = dim[i][j]
                rs = spans.get(j) or spans.setdefault(j, RowSpace(field, d))
                if rs.dim == d:
                    continue
                sw = _composite(field, tables.get((i, m, j)), w, s, [field.zero] * d)
                if rs.add(sw):
                    frontier.append(len(words))
                    words.append((j, sw, p, m, s))
        if any(dim[i][j] and (j not in spans or spans[j].dim < dim[i][j]) for j in range(n)):
            return None
        out.append(words)
    return out


def _associative_on_words(P: CategoryPresentation) -> bool:
    """Whether associativity follows from the generator triples alone.

    With G = _word_generators(P), it checks that the words of G span every
    Hom space (_grow_words) and that (s o y) o z = s o (y o z) for every s in
    G and all basis y, z.  If the unit laws hold, the product is then
    associative.  By trilinearity it is enough to show (x o y) o z =
    x o (y o z) for x a word, by induction on its length.  For x = id it is
    the left unit law, and for x = s o x' with s in G,

        (x o y) o z = (s o (x' o y)) o z = s o ((x' o y) o z)
                    = s o (x' o (y o z)) = x o (y o z),

    by the generator triples, the induction hypothesis for x', and the
    generator triples again.  So if it returns True the full check finds no
    violation.
    """
    gens = P.word_generators
    if _grow_words(P.field, P._dim, P.identities, gens, P.comp) is None:
        return False
    dim = P._dim
    into = [[j for j in range(P.n) if dim[j][k]] for k in range(P.n)]  # k -> the j with Hom(j, k) != 0
    for (k, l), g in gens.items():
        for j in into[k]:
            for i in into[j]:
                if dim[i][l] and next(_associativity_failures(P, i, j, k, l, g), None) is not None:
                    return False
    return True


def check_serre_symmetry(P: CategoryPresentation) -> list:
    """Pairs violating hom_dim(x, y) = hom_dim(y, sigma^2 x)."""
    P.require_sigma()
    bad = []
    for x in range(P.n):
        s2x = P.sigma[P.sigma[x]]
        for y in range(P.n):
            if P.hom_dim(x, y) != P.hom_dim(y, s2x):
                bad.append((x, y))
    return bad


# -- perpendicular categories and rigidity ------------------------------


def perp(P: CategoryPresentation, S) -> set[int]:
    """Objects c with Ext^1(x, c) = 0 for all x in S."""
    P.require_sigma()
    S = {s if isinstance(s, int) else P.index(s) for s in S}
    return {c for c in range(P.n) if all(P.hom_dim(x, P.sigma[c]) == 0 for x in S)}


def is_rigid(P: CategoryPresentation, T: Obj) -> bool:
    P.require_sigma()
    supp = T.support()
    return all(P.hom_dim(t, P.sigma[u]) == 0 for t in supp for u in supp)


def is_cluster_tilting(P: CategoryPresentation, T: Obj) -> bool:
    P.require_sigma()
    supp = T.support()
    if not supp:
        return P.n == 0
    return supp == perp(P, supp)


def all_rigid_supports(P: CategoryPresentation, max_size: int) -> list[tuple[int, ...]]:
    """All rigid multiplicity-free supports with 1..max_size summands."""
    P.require_sigma()
    selfok = [i for i in range(P.n) if P.hom_dim(i, P.sigma[i]) == 0]
    compat = {
        (i, j): P.hom_dim(i, P.sigma[j]) == 0 and P.hom_dim(j, P.sigma[i]) == 0
        for i in selfok
        for j in selfok
    }
    out = []

    def extend(prefix, start):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_size:
            return
        for i in range(start, len(selfok)):
            c = selfok[i]
            if all(compat[(p, c)] for p in prefix):
                extend(prefix + [c], i + 1)

    extend([], 0)
    return out


# -- approximations ------------------------------------------------------


def covers(P: CategoryPresentation, c: Morphism, Z: Obj) -> bool:
    """c o - is onto Hom(Z, target c): every map Z -> target c factors
    through c, the one rank condition rank(c o -) = dim Hom(Z, target c)."""
    d = P.hom_space_dim(Z, c.target)
    return not d or postcompose_matrix(P, c, Z).rank() == d


def _approx_is_covering(P: CategoryPresentation, S, a: Morphism) -> bool:
    """Hom(x, X0) -> Hom(x, C) surjective for every x in S."""
    return all(covers(P, a, P.single(x)) for x in S)


def _delete_copy(P: CategoryPresentation, a: Morphism, pos: int) -> Morphism:
    srcs = a.source.copies()
    mult = list(a.source.mult)
    mult[srcs[pos]] -= 1
    X = Obj(tuple(mult))
    blocks = [[b for s, b in enumerate(row) if s != pos] for row in a.blocks]
    return Morphism(P, X, a.target, blocks)


def approximation(P: CategoryPresentation, S, C: Obj) -> Morphism:
    """Minimal right add-S-approximation of C.

    Starts from the tautologically covering map out of the full basis sum
    and walks its copies once, in block order: a copy is deleted when the
    covering rank condition survives without it, and the walk then stays
    put, since the next copy has moved into its place.  A starting map that
    does not cover means the structure constants are inconsistent, and
    raises InternalInconsistency, under python -O too.

    This is the map of the greedy loop that restarts from copy 0 after each
    deletion.  Covering is monotone: for x in S the image of a o - on
    Hom(x, X) is spanned by the images through X's copies, so deleting
    copies only shrinks it.  A copy that could not be deleted therefore
    stays undeletable, and the restarts would re-test only such failures.
    """
    S = sorted(s if isinstance(s, int) else P.index(s) for s in S)
    # start object: one copy of x per basis element of Hom(x, C)
    mult = [0] * P.n
    for x in S:
        mult[x] = P.hom_space_dim(P.single(x), C)
    X0 = Obj(tuple(mult))
    blocks = [[] for _ in C.copies()]
    for x in S:
        for b in P.hom_basis(P.single(x), C):
            for t in range(len(C.copies())):
                blocks[t].append(b.blocks[t][0])
    a = Morphism(P, X0, C, blocks)
    if not _approx_is_covering(P, S, a):
        raise InternalInconsistency("the map from the Hom bases does not cover its target")
    pos = 0
    while pos < len(a.source.copies()):
        trial = _delete_copy(P, a, pos)
        if _approx_is_covering(P, S, trial):
            a = trial
        else:
            pos += 1
    return a


# -- opposite presentation ----------------------------------------------


def opposite(P: CategoryPresentation) -> CategoryPresentation:
    """The opposite category; kernels there are cokernels here.

    Memoised in both directions: opposite(opposite(P)) is P itself, so a
    morphism carried to the opposite and back with op_morphism belongs to P
    again.  The suspension permutation is dropped: Ext-style queries must be
    asked of the original presentation.
    """
    if P._opposite is not None:
        return P._opposite
    hom = {}
    for i in range(P.n):
        for j in range(P.n):
            d = P.hom_dim(j, i)
            if d:
                hom[(i, j)] = d
    comp = {}
    for (i, j, k), table in P.comp.items():
        # comp_op[(k, j, i)][b][a] = comp[(i, j, k)][a][b]
        comp[(k, j, i)] = [
            [list(table[a][b]) for a in range(P.hom_dim(i, j))]
            for b in range(P.hom_dim(j, k))
        ]
    op = CategoryPresentation(
        P.field,
        list(P.objects),
        hom,
        comp,
        [list(v) for v in P.identities],
        sigma=None,
        metadata={"opposite_of": P.metadata.get("name", "?")},
    )
    op._opposite = P
    P._opposite = op
    return op


def op_morphism(Q: CategoryPresentation, f: Morphism) -> Morphism:
    """Reinterpret a morphism of the opposite presentation in Q (or back).

    The twin is Q's one map of that value; a twin built here shares f's
    coefficient vectors, which no map changes.  It is kept on f, so asking
    again returns it without a lookup.  Carrying f there and back returns f
    itself, read from f.P's table.  A new twin does not point back at f, so
    building one makes no reference cycle; only asking for the way back
    keeps f on the twin.
    """
    twin = f._op
    if twin is None or twin.P is not Q:
        blocks = [[row[s] for row in f.blocks] for s in range(len(f.source.copies()))]
        twin = f._op = Morphism(Q, f.target, f.source, blocks)
    return twin


# -- direct sum plumbing --------------------------------------------------


def sum_copy_map(parts: list[Obj]) -> tuple:
    """Align the copies of a sum object with (part, copy-position) pairs.

    The sum's copies are ordered by indecomposable index; within one index,
    parts contribute in order.  Returned tuple is parallel to
    (sum of parts).copies().  It is memoised on the parts' multiplicity
    vectors, for the 128 lists used last: a verdict asks for few lists
    many times, and a bounded memo does not grow over a sweep.
    """
    return _sum_copy_map(tuple(part.mult for part in parts))


@functools.lru_cache(maxsize=128)
def _sum_copy_map(mults: tuple) -> tuple:
    """sum_copy_map of parts with the multiplicity vectors mults."""
    out = []
    for i in range(len(mults[0]) if mults else 0):
        for pi, mult in enumerate(mults):
            start = sum(mult[:i])  # the copies of part pi before index i
            out.extend((pi, start + c) for c in range(mult[i]))
    return tuple(out)


def sum_obj(parts: list[Obj]) -> Obj:
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def split_rows(P: CategoryPresentation, f: Morphism, parts: list[Obj]) -> list[Morphism]:
    """The components proj_p o f of f: X -> (sum of parts), one per part.

    proj_p o f is f's rows of the copies of part p, read through
    sum_copy_map(parts), which lists them in p's copy order.
    """
    cmap = sum_copy_map(parts)
    return [
        Morphism(P, f.source, part, [row for row, (q, _) in zip(f.blocks, cmap) if q == p])
        for p, part in enumerate(parts)
    ]


def stack_cols(P: CategoryPresentation, fs: list[Morphism]) -> Morphism:
    """[f1 | f2 | ...]: the map (sum of sources) -> common target."""
    target = fs[0].target
    parts = [f.source for f in fs]
    cmap = sum_copy_map(parts)
    blocks = [[list(fs[pi].blocks[t][cpos]) for pi, cpos in cmap] for t in range(len(target.copies()))]
    return Morphism(P, sum_obj(parts), target, blocks)
