"""The additive quotient of a presentation by the objects killed by Hom(T, -).

For a rigid object T, X_T is the set of indecomposables i with
Hom(T, i) = 0.  The quotient keeps the remaining indecomposables and divides
every Hom space by the subspace of maps factoring through add X_T.
Representatives are chosen by deterministic elimination, so quotient data
is reproducible bit for bit.
"""

from __future__ import annotations

from .errors import NotRigid, ShapeError
from .fincat import CategoryPresentation, Morphism, Obj, is_rigid, structure_constants
from .linalg import RowSpace


def x_t_objects(P: CategoryPresentation, T: Obj) -> set[int]:
    """Indecomposables i with Hom(t, i) = 0 for every summand t of T."""
    supp = T.support()
    return {i for i in range(P.n) if all(P.hom_dim(t, i) == 0 for t in supp)}


def factoring_subspace(P: CategoryPresentation, i: int, j: int, S) -> RowSpace:
    """Span of the maps i -> j that factor through add S, for indecomposables
    i and j and a set S of indecomposable indices.

    It is spanned by the composites i -> s -> j of basis elements, and the
    composite of basis a of Hom(i, s) and basis b of Hom(s, j) is
    comp[(i, s, j)][a][b], read from the structure constants.  They are
    added in (s, a, b) order, s ascending; a missing table makes them all
    zero, which adds nothing.
    """
    rs = RowSpace(P.field, P.hom_dim(i, j))
    for s in sorted(S):
        for row in P.comp.get((i, s, j), ()):
            for vec in row:
                rs.add(vec)
    return rs


class QuotientCategory:
    """C/X_T packaged with its induced presentation and transfer maps."""

    def __init__(self, parent: CategoryPresentation, xt: set[int]):
        self.parent = parent
        self.xt = set(xt)
        self.keep = keep = [i for i in range(parent.n) if i not in self.xt]
        field = parent.field
        # ideal subspaces F(i, j) on surviving single-object pairs
        self.f_spaces: dict[tuple[int, int], RowSpace] = {}
        self.rep_coords: dict[tuple[int, int], list[int]] = {}
        for i in keep:
            for j in keep:
                rs = factoring_subspace(parent, i, j, self.xt)
                self.f_spaces[(i, j)] = rs
                self.rep_coords[(i, j)] = rs.complement_indices()
        if any(not self.rep_coords[(i, i)] for i in keep):
            bad = [parent.objects[i] for i in keep if not self.rep_coords[(i, i)]]
            raise NotRigid(
                f"identity of {bad} factors through the subcategory; "
                "these objects should have been in X_T"
            )

        def product(i, j, k, a, b):
            # the composite of the representatives, read from the parent's table
            pi, pj, pk = keep[i], keep[j], keep[k]
            table = parent.comp.get((pi, pj, pk))
            if table is None:
                vec = [field.zero] * parent.hom_dim(pi, pk)
            else:
                vec = table[self.rep_coords[(pi, pj)][a]][self.rep_coords[(pj, pk)][b]]
            return self._project_vector(pi, pk, vec)

        dims = [[len(self.rep_coords[(i, j)]) for j in keep] for i in keep]
        hom, comp = structure_constants(field, dims, product)
        identities = [self._project_vector(i, i, parent.identities[i]) for i in keep]
        self.presentation = CategoryPresentation(
            field,
            [parent.objects[i] for i in keep],
            hom,
            comp,
            identities,
            sigma=None,
            metadata={
                "quotient_of": parent.metadata.get("name", "?"),
                "xt": sorted(parent.objects[i] for i in self.xt),
                "aliases": {
                    a: n
                    for a, n in parent.metadata.get("aliases", {}).items()
                    if n not in (parent.objects[i] for i in self.xt)
                },
            },
        )

    # -- helpers ---------------------------------------------------------

    def _project_vector(self, i: int, j: int, vec):
        red = self.f_spaces[(i, j)].reduce(vec)
        return [red[c] for c in self.rep_coords[(i, j)]]

    # -- object transfer ---------------------------------------------------

    def project_obj(self, X: Obj) -> Obj:
        return Obj(tuple(X.mult[i] for i in self.keep))

    def lift_obj(self, Xq: Obj) -> Obj:
        mult = [0] * self.parent.n
        for q, p in enumerate(self.keep):
            mult[p] = Xq.mult[q]
        return Obj(tuple(mult))

    # -- morphism transfer ---------------------------------------------------

    def project(self, f: Morphism) -> Morphism:
        """Image of a parent morphism: representative coordinates blockwise."""
        if f.P is not self.parent:
            raise ShapeError("morphism does not live in the parent presentation")
        Xq = self.project_obj(f.source)
        Yq = self.project_obj(f.target)
        src = [(pos, i) for pos, i in enumerate(f.source.copies()) if i not in self.xt]
        tgt = [(pos, j) for pos, j in enumerate(f.target.copies()) if j not in self.xt]
        blocks = []
        for tpos, j in tgt:
            row = []
            for spos, i in src:
                row.append(self._project_vector(i, j, list(f.blocks[tpos][spos])))
            blocks.append(row)
        return Morphism(self.presentation, Xq, Yq, blocks)

    def lift(self, qf: Morphism) -> Morphism:
        """The chosen parent representative of a quotient morphism."""
        if qf.P is not self.presentation:
            raise ShapeError("morphism does not live in the quotient presentation")
        parent = self.parent
        zero = parent.field.zero
        srcs = [self.keep[qi] for qi in qf.source.copies()]
        blocks = []
        for j, qrow in zip((self.keep[qj] for qj in qf.target.copies()), qf.blocks):
            row = []
            for i, qblock in zip(srcs, qrow):
                block = [zero] * parent.hom_dim(i, j)
                for coord, x in zip(self.rep_coords[(i, j)], qblock):
                    block[coord] = x
                row.append(block)
            blocks.append(row)
        return Morphism(parent, self.lift_obj(qf.source), self.lift_obj(qf.target), blocks)


def build_quotient(
    P: CategoryPresentation,
    T: Obj | None = None,
    subcat=None,
) -> QuotientCategory:
    """Quotient by X_T for a rigid T, or by an explicit indecomposable set.

    Rigidity of T is the standing hypothesis of every downstream result and
    is enforced whenever T is given.  The explicit subcat form serves
    quotients by a perpendicular subcategory, as in the cotorsion
    counterexample, and by x_t_objects(P, T) for a T that is not rigid.
    """
    if (T is None) == (subcat is None):
        raise ValueError("pass exactly one of T or subcat")
    if T is not None:
        if not is_rigid(P, T):
            raise NotRigid(f"object {P.obj_name(T)} is not rigid")
        xt = x_t_objects(P, T)
    else:
        xt = {s if isinstance(s, int) else P.index(s) for s in subcat}
    return QuotientCategory(P, xt)
