"""Cluster categories of type A_n, generated from quiver representations.

The construction is the orbit one: indecomposables are the interval modules
of the path quiver together with the shifted projectives, Hom spaces are
Hom(X, Y) + Hom(X, FY) with F the composite of the inverse translate and
the shift, and composition is computed from explicit representatives
(module maps and extension cocycles).  A combinatorial polygon-diagonal
model acts as an independent oracle for every Hom dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GenerationError
from .fincat import CategoryPresentation, structure_constants, validate_category, word_product
from .linalg import QQ, Field, Matrix, RowSpace, intertwiners, unit_vector, vec_is_zero, vec_scale

# ---------------------------------------------------------------------------
# quivers and representations


@dataclass(frozen=True)
class QuiverAn:
    """The path 1 - 2 - ... - n with a chosen arrow direction per edge.

    orientation[k] is '<' when the arrow between k+1 and k+2 points down
    (towards vertex 1) and '>' when it points up.  The default '<' * (n-1)
    is the linearly ordered quiver 1 <- 2 <- ... <- n.
    """

    n: int
    orientation: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.orientation) != self.n - 1 or any(c not in "<>" for c in self.orientation):
            raise ValueError("orientation must be a string of '<' and '>' of length n-1")

    def arrows(self):
        """List of (source, target) vertex pairs, 1-based, one per edge."""
        out = []
        for k, c in enumerate(self.orientation):
            lo, hi = k + 1, k + 2
            out.append((hi, lo) if c == "<" else (lo, hi))
        return out


class Rep:
    """A representation of a QuiverAn: one space per vertex, one map per edge.

    mats[k] is the matrix of edge k, shaped (dim target) x (dim source).
    """

    def __init__(self, quiver: QuiverAn, field: Field, dims, mats):
        self.quiver = quiver
        self.field = field
        self.dims = tuple(dims)
        if len(self.dims) != quiver.n:
            raise ValueError("dimension vector length mismatch")
        self.mats = list(mats)
        for k, (s, t) in enumerate(quiver.arrows()):
            m = self.mats[k]
            if (m.nrows, m.ncols) != (self.dims[t - 1], self.dims[s - 1]):
                raise ValueError(f"edge {k} matrix has wrong shape")

    def dim_at(self, v: int) -> int:
        return self.dims[v - 1]

    def __eq__(self, other):
        return (
            isinstance(other, Rep)
            and self.quiver == other.quiver
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"Rep(dims={self.dims})"


def interval_rep(quiver: QuiverAn, field: Field, a: int, b: int) -> Rep:
    """The interval module with support {a, ..., b} and identity arrows."""
    if not (1 <= a <= b <= quiver.n):
        raise ValueError("bad interval")
    dims = [1 if a <= v <= b else 0 for v in range(1, quiver.n + 1)]
    mats = []
    for s, t in quiver.arrows():
        if a <= s <= b and a <= t <= b:
            mats.append(Matrix.identity(field, 1))
        else:
            mats.append(Matrix.zeros(field, dims[t - 1], dims[s - 1]))
    return Rep(quiver, field, dims, mats)


def proj_interval(quiver: QuiverAn, v: int) -> tuple[int, int]:
    """Support of the projective at v: all vertices reachable from v."""
    return _walk(quiver, v, "<")


def inj_interval(quiver: QuiverAn, v: int) -> tuple[int, int]:
    """Support of the injective at v: all vertices reaching v."""
    return _walk(quiver, v, ">")


def _walk(quiver: QuiverAn, v: int, below: str) -> tuple[int, int]:
    """Widest interval around v whose edges read `below` under v and the
    other direction over v."""
    lo = v
    while lo > 1 and quiver.orientation[lo - 2] == below:
        lo -= 1
    hi = v
    while hi < quiver.n and quiver.orientation[hi - 1] != below:
        hi += 1
    return (lo, hi)


def path_matrix(rep: Rep, src: int, dst: int):
    """Composite of arrow matrices along the directed path src -> dst.

    Returns None when the path from src to dst is not directed that way.
    """
    if src == dst:
        return Matrix.identity(rep.field, rep.dim_at(src))
    step = 1 if dst > src else -1
    arrows = rep.quiver.arrows()
    m = Matrix.identity(rep.field, rep.dim_at(src))
    v = src
    while v != dst:
        w = v + step
        k = min(v, w) - 1
        s, t = arrows[k]
        if s != v or t != w:
            return None
        m = rep.mats[k] * m
        v = w
    return m


class RepHom:
    """A homomorphism of representations: one matrix per vertex."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Rep, target: Rep, mats):
        self.source = source
        self.target = target
        self.mats = list(mats)

    def mat(self, v: int) -> Matrix:
        return self.mats[v - 1]

    def compose(self, other: "RepHom") -> "RepHom":
        """self o other."""
        return RepHom(
            other.source,
            self.target,
            [a * b for a, b in zip(self.mats, other.mats)],
        )

    def scale(self, c):
        return RepHom(self.source, self.target, [m.scale(c) for m in self.mats])

    def __eq__(self, other):
        return (
            isinstance(other, RepHom)
            and self.source == other.source
            and self.target == other.target
            and self.mats == other.mats
        )

    def is_iso(self):
        return all(
            m.nrows == m.ncols and m.rank() == m.nrows for m in self.mats
        )

    def flatten(self):
        out = []
        for m in self.mats:
            for row in m.data:
                out.extend(row)
        return out


def identity_hom(M: Rep) -> RepHom:
    return RepHom(M, M, [Matrix.identity(M.field, d) for d in M.dims])


def hom_flat_dim(M: Rep, N: Rep) -> int:
    return sum(a * b for a, b in zip(M.dims, N.dims))


def hom_from_flat(M: Rep, N: Rep, vec) -> RepHom:
    mats = []
    pos = 0
    for v in range(M.quiver.n):
        r, c = N.dims[v], M.dims[v]
        data = [vec[pos + i * c : pos + (i + 1) * c] for i in range(r)]
        pos += r * c
        mats.append(Matrix(M.field, r, c, data))
    return RepHom(M, N, mats)


def hom_rep(M: Rep, N: Rep) -> list[RepHom]:
    """Basis of Hom(M, N): one family of vertex maps commuting with each arrow."""
    relations = [(s - 1, t - 1, a, b) for (s, t), a, b in zip(M.quiver.arrows(), M.mats, N.mats)]
    return [hom_from_flat(M, N, v) for v in intertwiners(M.field, M.dims, N.dims, relations)]


def _block_matrix(field: Field, nrows: int, ncols: int, blocks) -> Matrix:
    """The zero matrix with each (row offset, column offset, block) copied in."""
    m = Matrix.zeros(field, nrows, ncols)
    for ro, co, block in blocks:
        for i, row in enumerate(block.data):
            m.data[ro + i][co : co + block.ncols] = row
    return m


def direct_sum(reps: list[Rep], quiver: QuiverAn, field: Field) -> tuple[Rep, list[list[int]]]:
    """Direct sum rep together with per-summand column offsets per vertex."""
    n = quiver.n
    dims = [0] * n
    offsets = []
    for r in reps:
        offsets.append([dims[v] for v in range(n)])
        for v in range(n):
            dims[v] += r.dims[v]
    # the offsets grow per vertex in summand order, so each arrow's blocks
    # sit on the diagonal
    mats = [Matrix.block_diagonal(field, [r.mats[k] for r in reps]) for k in range(n - 1)]
    return Rep(quiver, field, dims, mats), offsets


def kernel_rep(f: RepHom) -> tuple[Rep, RepHom]:
    """Kernel subrepresentation with its inclusion."""
    M = f.source
    field = M.field
    n = M.quiver.n
    kbases = []
    for v in range(1, n + 1):
        kbases.append(f.mat(v).kernel_basis())
    dims = [len(kb) for kb in kbases]
    incl_mats = [Matrix.from_columns(field, M.dims[v], kbases[v]) for v in range(n)]
    kmats = []
    for k, (s, t) in enumerate(M.quiver.arrows()):
        image = M.mats[k] * incl_mats[s - 1]
        sol = incl_mats[t - 1].solve_matrix(image)
        if sol is None:
            raise GenerationError("kernel is not a subrepresentation (impossible)")
        kmats.append(sol)
    K = Rep(M.quiver, field, dims, kmats)
    return K, RepHom(K, M, incl_mats)


def cokernel_rep(f: RepHom) -> tuple[Rep, RepHom, list[Matrix]]:
    """Cokernel with projection and a per-vertex section of the projection."""
    N = f.target
    field = N.field
    n = N.quiver.n
    proj_mats = []
    sect_mats = []
    dims = []
    spaces = []
    for v in range(n):
        img_cols = [f.mats[v].col(j) for j in range(f.mats[v].ncols)]
        rs = RowSpace.from_rows(field, N.dims[v], img_cols)
        comp = rs.complement_indices()
        dims.append(len(comp))
        spaces.append((rs, comp))
        # projection: reduce mod image, then read complement coordinates
        cols = []
        for j in range(N.dims[v]):
            red = rs.reduce(unit_vector(field, N.dims[v], j))
            cols.append([red[c] for c in comp])
        proj_mats.append(Matrix.from_columns(field, len(comp), cols))
        sect_mats.append(Matrix.from_columns(field, N.dims[v], [unit_vector(field, N.dims[v], c) for c in comp]))
    cmats = []
    for k, (s, t) in enumerate(N.quiver.arrows()):
        cmats.append(proj_mats[t - 1] * N.mats[k] * sect_mats[s - 1])
    C = Rep(N.quiver, field, dims, cmats)
    return C, RepHom(N, C, proj_mats), sect_mats


# ---------------------------------------------------------------------------
# socle / top, projective presentations, injective copresentations


def socle_vertex_basis(M: Rep, v: int):
    """Basis of the socle component at v: joint kernel of outgoing arrows."""
    field = M.field
    rows = []
    for k, (s, t) in enumerate(M.quiver.arrows()):
        if s == v:
            rows.extend(M.mats[k].data)
    return Matrix(field, len(rows), M.dims[v - 1], rows).kernel_basis()


def top_vertex_basis(M: Rep, v: int):
    """Lifts of a basis of the top component at v (cokernel of incoming)."""
    field = M.field
    img = []
    for k, (s, t) in enumerate(M.quiver.arrows()):
        if t == v:
            img.extend(M.mats[k].col(j) for j in range(M.mats[k].ncols))
    rs = RowSpace.from_rows(field, M.dims[v - 1], img)
    return [unit_vector(field, M.dims[v - 1], c) for c in rs.complement_indices()]


def hom_to_injective(M: Rep, v: int, functional, I_v: Rep) -> RepHom:
    """The hom M -> I_v matching a linear functional on M_v."""
    field = M.field
    row = Matrix(field, 1, len(functional), [functional])
    mats = []
    for w in range(1, M.quiver.n + 1):
        if I_v.dim_at(w) == 0:
            mats.append(Matrix.zeros(field, 0, M.dims[w - 1]))
            continue
        pm = path_matrix(M, w, v)
        if pm is None:
            raise GenerationError("injective support vertex without path (impossible)")
        mats.append(row * pm)
    return RepHom(M, I_v, mats)


def hom_from_projective(M: Rep, v: int, value, P_v: Rep) -> RepHom:
    """The hom P_v -> M sending the generator at v to the given vector."""
    field = M.field
    mats = []
    for w in range(1, M.quiver.n + 1):
        if P_v.dim_at(w) == 0:
            mats.append(Matrix.zeros(field, M.dims[w - 1], 0))
            continue
        pm = path_matrix(M, v, w)
        if pm is None:
            raise GenerationError("projective support vertex without path (impossible)")
        mats.append(Matrix.from_columns(field, M.dims[w - 1], [pm.apply(value)]))
    return RepHom(P_v, M, mats)


class Presentation:
    """Short exact sequence 0 -> K -> P0 -> M -> 0 with P0 a projective sum."""

    def __init__(self, quiver: QuiverAn, field: Field, M: Rep):
        parts = []
        gens = []
        for v in range(1, quiver.n + 1):
            for x in top_vertex_basis(M, v):
                parts.append(v)
                gens.append((v, x))
        preps = [interval_rep(quiver, field, *proj_interval(quiver, v)) for v in parts]
        P0, offsets = direct_sum(preps, quiver, field)
        self.parts = parts
        self.P0 = P0
        # assemble pi: P0 -> M columnwise from the generator maps
        homs = [hom_from_projective(M, v, x, prep) for (v, x), prep in zip(gens, preps)]
        mats = []
        for w in range(quiver.n):
            blocks = [(0, off[w], h.mats[w]) for h, off in zip(homs, offsets)]
            mats.append(_block_matrix(field, M.dims[w], P0.dims[w], blocks))
        self.pi = RepHom(P0, M, mats)
        for v in range(quiver.n):
            if self.pi.mats[v].rank() != M.dims[v]:
                raise GenerationError("projective cover is not surjective")
        self.K, self.iota = kernel_rep(self.pi)


class Copresentation:
    """Short exact sequence 0 -> N -> I0 -> I1 -> 0 with injective sums.

    Keeps the summand vertex lists so the Nakayama transport to projectives
    can be applied blockwise.
    """

    def __init__(self, quiver: QuiverAn, field: Field, N: Rep):
        self.i0_parts, self.iota, I0 = _inj_envelope(quiver, field, N)
        self.I0 = I0
        C, proj, _ = cokernel_rep(self.iota)
        if any(self.iota.mats[v].rank() != N.dims[v] for v in range(quiver.n)):
            raise GenerationError("socle embedding not injective")
        self.i1_parts, eps, I1 = _inj_envelope(quiver, field, C)
        if any(eps.mats[v].rank() != C.dims[v] for v in range(quiver.n)):
            raise GenerationError("cosyzygy embedding not injective")
        self.I1 = I1
        self.d = eps.compose(proj)


def _inj_envelope(quiver: QuiverAn, field: Field, M: Rep):
    """Injective envelope of M: summand vertices, embedding, sum rep."""
    parts = []
    funcs = []
    for v in range(1, quiver.n + 1):
        soc = socle_vertex_basis(M, v)
        if not soc:
            continue
        soc_m = Matrix(field, len(soc), M.dims[v - 1], soc)
        for b in range(len(soc)):
            xi = soc_m.solve(unit_vector(field, len(soc), b))  # functional with xi | socle = dual basis
            if xi is None:
                raise GenerationError("cannot extend socle functional")
            parts.append(v)
            funcs.append(xi)
    ireps = [interval_rep(quiver, field, *inj_interval(quiver, v)) for v in parts]
    Isum, offsets = direct_sum(ireps, quiver, field)
    homs = [hom_to_injective(M, v, xi, irep) for v, xi, irep in zip(parts, funcs, ireps)]
    mats = []
    for w in range(quiver.n):
        blocks = [(off[w], 0, h.mats[w]) for h, off in zip(homs, offsets)]
        mats.append(_block_matrix(field, Isum.dims[w], M.dims[w], blocks))
    return parts, RepHom(M, Isum, mats), Isum


# ---------------------------------------------------------------------------
# Nakayama transport and the AR translates


class _NakayamaContext:
    """Canonical bases of Hom(I_a, I_b) and Hom(P_a, P_b) plus coherence."""

    def __init__(self, quiver: QuiverAn, field: Field):
        self.quiver = quiver
        self.field = field
        self.P = {v: interval_rep(quiver, field, *proj_interval(quiver, v)) for v in range(1, quiver.n + 1)}
        self.I = {v: interval_rep(quiver, field, *inj_interval(quiver, v)) for v in range(1, quiver.n + 1)}
        self.gamma = {}
        self.delta = {}
        for a in range(1, quiver.n + 1):
            for b in range(1, quiver.n + 1):
                self.gamma[(a, b)] = _canonical_hom(self.I[a], self.I[b])
                self.delta[(a, b)] = _canonical_hom(self.P[a], self.P[b])
                if (self.gamma[(a, b)] is None) != (self.delta[(a, b)] is None):
                    raise GenerationError(f"Nakayama dimension mismatch at {(a, b)}")
        self._check_coherence()

    def _check_coherence(self):
        # the canonical bases must compose with identical structure constants
        for a in range(1, self.quiver.n + 1):
            for b in range(1, self.quiver.n + 1):
                if self.gamma[(a, b)] is None:
                    continue
                for c in range(1, self.quiver.n + 1):
                    if self.gamma[(b, c)] is None:
                        continue
                    gi = _hom_coefficient(self.gamma[(b, c)].compose(self.gamma[(a, b)]), self.gamma.get((a, c)))
                    gp = _hom_coefficient(self.delta[(b, c)].compose(self.delta[(a, b)]), self.delta.get((a, c)))
                    if gi != gp:
                        raise GenerationError(f"Nakayama coherence fails at {(a, b, c)}")

    def transport(self, h: RepHom, src_parts, tgt_parts) -> RepHom:
        """Nakayama image of h between the sums over src_parts and tgt_parts.

        h maps the sum of the I_v, v in src_parts, to the sum over
        tgt_parts.  Each (a -> b) block of h is a multiple of the canonical
        map I_a -> I_b; the image has the same multiple of the canonical map
        P_a -> P_b in the same block.
        """
        quiver, field = self.quiver, self.field
        _, i_offs_s = direct_sum([self.I[a] for a in src_parts], quiver, field)
        _, i_offs_t = direct_sum([self.I[b] for b in tgt_parts], quiver, field)
        S, offs_s = direct_sum([self.P[a] for a in src_parts], quiver, field)
        T, offs_t = direct_sum([self.P[b] for b in tgt_parts], quiver, field)
        blocks = [[] for _ in range(quiver.n)]
        for bi, b in enumerate(tgt_parts):
            for ai, a in enumerate(src_parts):
                coeff = _block_coefficient(h, i_offs_s[ai], i_offs_t[bi], self.I[a], self.I[b], self.gamma[(a, b)])
                if coeff == field.zero:
                    continue
                image = self.delta[(a, b)].scale(coeff)
                for v in range(quiver.n):
                    blocks[v].append((offs_t[bi][v], offs_s[ai][v], image.mats[v]))
        return RepHom(S, T, [_block_matrix(field, T.dims[v], S.dims[v], blocks[v]) for v in range(quiver.n)])


def _canonical_hom(A: Rep, B: Rep):
    basis = hom_rep(A, B)
    if not basis:
        return None
    if len(basis) != 1:
        raise GenerationError("interval hom space of dimension > 1")
    # normalise: the first nonzero entry (in vertex order) becomes 1
    h = basis[0]
    return h.scale(A.field.inv(next(x for x in h.flatten() if x != A.field.zero)))


def _coefficient(field: Field, vec, canon):
    """Scalar c with vec = c * canon, both flattened homs; canon None means
    the space is zero."""
    if canon is None:
        if not vec_is_zero(field, vec):
            raise GenerationError("nonzero hom in zero space")
        return field.zero
    i = next((i for i, x in enumerate(canon) if x != field.zero), None)
    c = field.zero if i is None else field.div(vec[i], canon[i])
    if vec != vec_scale(field, c, canon):
        raise GenerationError("hom is not a multiple of the canonical basis")
    return c


def _hom_coefficient(h: RepHom, canon):
    """Scalar c with h = c * canon (canon None means the space is zero)."""
    return _coefficient(h.source.field, h.flatten(), None if canon is None else canon.flatten())


def _block_coefficient(h: RepHom, src_off, tgt_off, A: Rep, B: Rep, canon):
    """Coefficient of the (A -> B) block of h against the canonical hom."""
    vec = [
        x
        for v, m in enumerate(h.mats)
        for row in m.data[tgt_off[v] : tgt_off[v] + B.dims[v]]
        for x in row[src_off[v] : src_off[v] + A.dims[v]]
    ]
    return _coefficient(h.source.field, vec, None if canon is None else canon.flatten())


def _identify_interval(R: Rep) -> tuple[int, int] | None:
    """Interval (a, b) when R has an interval dimension vector, else None."""
    supp = [v for v in range(1, R.quiver.n + 1) if R.dim_at(v) != 0]
    if not supp or any(R.dim_at(v) != 1 for v in supp):
        return None
    if supp != list(range(supp[0], supp[-1] + 1)):
        return None
    return (supp[0], supp[-1])


class TauContext:
    """AR translate machinery for one quiver over one field."""

    def __init__(self, quiver: QuiverAn, field: Field):
        self.quiver = quiver
        self.field = field
        self.nak = _NakayamaContext(quiver, field)
        self._tinv = {}
        self._tinv_mor_cache = {}

    def is_injective(self, iv: tuple[int, int]) -> bool:
        return any(inj_interval(self.quiver, v) == iv for v in range(1, self.quiver.n + 1))

    # -- tau inverse with morphisms --------------------------------------

    def _tinv_data(self, iv: tuple[int, int]):
        if iv in self._tinv:
            return self._tinv[iv]
        if self.is_injective(iv):
            raise GenerationError("tau^{-1} of an injective is undefined")
        quiver, field = self.quiver, self.field
        N = interval_rep(quiver, field, *iv)
        cop = Copresentation(quiver, field, N)
        D = self.nak.transport(cop.d, cop.i0_parts, cop.i1_parts)
        R, proj, sect = cokernel_rep(D)
        iv2 = _identify_interval(R)
        if iv2 is None:
            raise GenerationError("tau^{-1} did not produce an interval")
        std = interval_rep(quiver, field, *iv2)
        isos = hom_rep(R, std)
        iso = None
        for cand in isos:
            if cand.is_iso():
                iso = cand
                break
        if iso is None:
            raise GenerationError("cannot identify tau^{-1} cokernel with its interval")
        data = {
            "interval": iv2,
            "std": std,
            "cop": cop,
            "R": R,
            "proj": proj,
            "sect": sect,
            "iso": iso,
            "iso_inv": RepHom(std, R, [m.inverse() if m.nrows else Matrix.zeros(self.field, m.ncols, m.nrows) for m in iso.mats]),
        }
        self._tinv[iv] = data
        return data

    def tau_inv_interval(self, iv: tuple[int, int]) -> tuple[int, int]:
        """The interval of the inverse translate of a non-injective interval."""
        return self._tinv_data(iv)["interval"]

    def tau_inv_std(self, iv: tuple[int, int]) -> Rep:
        """Standard interval model of the inverse translate."""
        return self._tinv_data(iv)["std"]

    def tau_inv_mor(self, ivN: tuple[int, int], ivL: tuple[int, int], u: RepHom, cache_key) -> RepHom:
        """Inverse translate of u between non-injective intervals.

        Lifts u to the injective copresentations, transports through the
        Nakayama correspondence, and conjugates the induced cokernel map by
        the fixed interval identifications.  The result is kept under cache_key.
        """
        if cache_key in self._tinv_mor_cache:
            return self._tinv_mor_cache[cache_key]
        dN = self._tinv_data(ivN)
        dL = self._tinv_data(ivL)
        copN, copL = dN["cop"], dL["cop"]
        u0 = _solve_factor(copL.iota.compose(u), copN.I0, copL.I0, lambda h: h.compose(copN.iota))
        u1 = _solve_factor(copL.d.compose(u0), copN.I1, copL.I1, lambda h: h.compose(copN.d))
        V = self.nak.transport(u1, copN.i1_parts, copL.i1_parts)
        # induced map on cokernels, then conjugate into the interval models
        mats = []
        for v in range(self.quiver.n):
            sectN = dN["sect"][v]
            w = dL["proj"].mats[v] * V.mats[v] * sectN
            mats.append(w)
        induced = RepHom(dN["R"], dL["R"], mats)
        out = dL["iso"].compose(induced).compose(dN["iso_inv"])
        self._tinv_mor_cache[cache_key] = out
        return out


def _solve_factor(target: RepHom, src: Rep, dst: Rep, image) -> RepHom:
    """Some h: src -> dst with image(h) = target, for a linear image."""
    field = src.field
    basis = hom_rep(src, dst)
    want = target.flatten()
    x = Matrix.from_columns(field, len(want), [image(b).flatten() for b in basis]).solve(want)
    if x is None:
        raise GenerationError("lift through a presentation does not exist (impossible)")
    flat = Matrix.from_columns(field, hom_flat_dim(src, dst), [b.flatten() for b in basis])
    return hom_from_flat(src, dst, flat.apply(x))


# ---------------------------------------------------------------------------
# the diagonal model (independent oracle)


class DiagonalModel:
    """Diagonals of an (n+3)-gon with the rotation used as suspension."""

    def __init__(self, n: int):
        self.n = n
        self.N = n + 3
        self.diagonals = [
            (a, b)
            for a in range(self.N)
            for b in range(a + 2, self.N)
            if not (a == 0 and b == self.N - 1)
        ]

    def normalize(self, d):
        a, b = d[0] % self.N, d[1] % self.N
        a, b = min(a, b), max(a, b)
        if b - a < 2 or (a == 0 and b == self.N - 1):
            raise ValueError(f"{d} is not a diagonal")
        return (a, b)

    def rotate(self, d, k: int = 1):
        """Suspension acts as rotation by -1 on vertex labels."""
        return self.normalize(((d[0] - k) % self.N, (d[1] - k) % self.N))

    def cross(self, d, e) -> bool:
        a, b = d
        c, f = e
        if len({a, b, c, f}) < 4:
            return False
        def between(x, lo, hi):
            return (lo < x < hi) if lo < hi else (x > lo or x < hi)
        return between(c, a, b) != between(f, a, b)

    def expected_dim(self, da, db) -> int:
        """dim Hom(X, Y) = 1 iff the diagonal of X crosses the -1 rotate of Y."""
        return 1 if self.cross(da, self.rotate(db, -1)) else 0


def search_labelling(model: DiagonalModel, sigma: list[int], dims) -> list | None:
    """Rotation-equivariant labelling matching a hom-dimension table.

    Objects are indexed 0..m-1; dims[x][y] is the table to match.
    Returns a list of diagonals per object, or None.
    """
    m = len(sigma)
    orbits = []
    seen = set()
    for x in range(m):
        if x in seen:
            continue
        orb = [x]
        seen.add(x)
        y = sigma[x]
        while y != x:
            orb.append(y)
            seen.add(y)
            y = sigma[y]
        orbits.append(orb)
    lab = [None] * m

    def consistent(xs, assigned):
        for x in xs:
            for y in assigned:
                if x != y and lab[x] == lab[y]:
                    return False
                if dims[x][y] != model.expected_dim(lab[x], lab[y]):
                    return False
                if dims[y][x] != model.expected_dim(lab[y], lab[x]):
                    return False
        return True

    def assign(oi, assigned):
        if oi == len(orbits):
            return True
        orb = orbits[oi]
        for d in model.diagonals:
            if model.rotate(d, len(orb)) != d:
                continue
            for k, x in enumerate(orb):
                lab[x] = model.rotate(d, k)
            if consistent(orb, assigned + orb) and assign(oi + 1, assigned + orb):
                return True
            for x in orb:
                lab[x] = None
        return False

    return lab if assign(0, []) else None


# ---------------------------------------------------------------------------
# assembly of the cluster category presentation


def _module_names(quiver: QuiverAn, a: int, b: int) -> list[str]:
    """Every name of the interval module [a, b], the canonical one first."""
    vertices = range(1, quiver.n + 1)
    names = [f"P{v}" for v in vertices if proj_interval(quiver, v) == (a, b)]
    names += [f"I{v}" for v in vertices if inj_interval(quiver, v) == (a, b)]
    if a == b:
        names.append(f"S{a}")
    return names + [f"M[{a},{b}]"]


class _PairData:
    """Basis of one Hom space of the cluster category, with reducers."""

    def __init__(self, field: Field):
        self.field = field
        self.h0 = []  # degree-0 module homs (mm) / plain homs (ms, sm, ss)
        self.e1 = []  # degree-1 extension classes (mm only)
        self.ext = None  # _ExtReducer for the ext-type part
        self.h0_cols = None  # h0 as columns, built at the first coords_h0

    @property
    def dim(self):
        return len(self.h0) + len(self.e1)

    def coords_h0(self, h: RepHom):
        want = h.flatten()
        if self.h0_cols is None:  # h0 is final once composites are read
            self.h0_cols = Matrix.from_columns(self.field, len(want), [b.flatten() for b in self.h0])
        c = self.h0_cols.solve(want)
        if c is None:
            raise GenerationError("hom does not lie in the computed basis span")
        return list(c) + [self.field.zero] * len(self.e1)

    def coords_e1(self, e: RepHom):
        c = self.ext.reduce(e)
        return [self.field.zero] * len(self.h0) + list(c)


class _ExtReducer:
    """Ext^1(M, W) from a fixed presentation of M: basis and reduction."""

    def __init__(self, field: Field, pres: Presentation, W: Rep):
        self.field = field
        self.pres = pres
        self.W = W
        width = hom_flat_dim(pres.K, W)
        homs_k = hom_rep(pres.K, W)
        img = RowSpace.from_rows(field, width, (g.compose(pres.iota).flatten() for g in hom_rep(pres.P0, W)))
        self.img = img
        self.basis = []
        probe = RowSpace.from_rows(field, width, img.rows)
        for h in homs_k:
            if probe.add(h.flatten()):
                self.basis.append(h)
        self.reduced_cols = Matrix.from_columns(field, width, [img.reduce(h.flatten()) for h in self.basis])

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, e: RepHom):
        c = self.reduced_cols.solve(self.img.reduce(e.flatten()))
        if c is None:
            raise GenerationError("cocycle outside Ext span")
        return c


class _ClusterBuilder:
    def __init__(self, n: int, orientation: str | None, field: Field):
        self.n = n
        self.quiver = QuiverAn(n, orientation if orientation is not None else "<" * (n - 1))
        self.field = field
        self.ctx = TauContext(self.quiver, field)
        self.intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
        self.keys = [("mod",) + iv for iv in self.intervals] + [("sp", i) for i in range(1, n + 1)]
        self.reps = {}
        self.pres = {}
        self.names = {}
        self.aliases = {}
        for iv in self.intervals:
            key = ("mod",) + iv
            self.reps[key] = interval_rep(self.quiver, field, *iv)
            self.pres[key] = Presentation(self.quiver, field, self.reps[key])
            name, *aliases = _module_names(self.quiver, *iv)
            self.names[key] = name
            for alias in aliases:
                self.aliases[alias] = name
        for i in range(1, n + 1):
            self.names[("sp", i)] = f"SP{i}"
        self.pj = {i: interval_rep(self.quiver, field, *proj_interval(self.quiver, i)) for i in range(1, n + 1)}
        self.pairs = {}
        self._lift_cache = {}

    # -- basis construction ------------------------------------------------

    def _is_inj(self, key) -> bool:
        return self.ctx.is_injective((key[1], key[2]))

    def _tinv_std(self, key) -> Rep:
        return self.ctx.tau_inv_std((key[1], key[2]))

    def build_pair(self, kx, ky) -> _PairData:
        pd = _PairData(self.field)
        if kx[0] == "mod" and ky[0] == "mod":
            pd.h0 = hom_rep(self.reps[kx], self.reps[ky])
            if not self._is_inj(ky):
                pd.ext = _ExtReducer(self.field, self.pres[kx], self._tinv_std(ky))
                pd.e1 = pd.ext.basis
        elif kx[0] == "mod" and ky[0] == "sp":
            pd.ext = _ExtReducer(self.field, self.pres[kx], self.pj[ky[1]])
            pd.h0 = []
            pd.e1 = pd.ext.basis
        elif kx[0] == "sp" and ky[0] == "mod":
            if not self._is_inj(ky):
                pd.h0 = hom_rep(self.pj[kx[1]], self._tinv_std(ky))
        else:
            pd.h0 = hom_rep(self.pj[kx[1]], self.pj[ky[1]])
        return pd

    # -- composition ---------------------------------------------------------

    def _lift_syzygy(self, kx, ky, a, f: RepHom) -> RepHom:
        """f1 : K_X -> K_Y covering f : X -> Y through the presentations."""
        ck = (kx, ky, a)
        if ck in self._lift_cache:
            return self._lift_cache[ck]
        px, py = self.pres[kx], self.pres[ky]
        f0 = _solve_factor(f.compose(px.pi), px.P0, py.P0, py.pi.compose)
        f1 = _solve_factor(f0.compose(px.iota), px.K, py.K, py.iota.compose)
        self._lift_cache[ck] = f1
        return f1

    def _tinv_mor(self, ky, kz, b, g: RepHom) -> RepHom:
        return self.ctx.tau_inv_mor((ky[1], ky[2]), (kz[1], kz[2]), g, cache_key=(ky, kz, b))

    def compose_basis(self, kx, ky, kz, a: int, b: int):
        """Coefficient vector of (basis b of Hom(y,z)) o (basis a of Hom(x,y))."""
        px = self.pairs[(kx, ky)]
        py = self.pairs[(ky, kz)]
        pz = self.pairs[(kx, kz)]
        zero = [self.field.zero] * pz.dim
        f_isext = a >= len(px.h0)
        g_isext = b >= len(py.h0)
        f = px.e1[a - len(px.h0)] if f_isext else px.h0[a]
        g = py.e1[b - len(py.h0)] if g_isext else py.h0[b]
        # a Hom out of SP_i has no e1 part, so a composite that is not a
        # plain module map is read in e1 out of a module and in h0 out of SP_i
        coords_ext = pz.coords_e1 if kx[0] == "mod" else pz.coords_h0
        if ky[0] == "sp":
            # g : P_j -> tau^{-1} Z or P_k pushes f forward
            return coords_ext(g.compose(f))
        # y is a module: f lies in Hom(x, Fy) when it is a class or leaves SP_i
        f_in_F = f_isext or kx[0] == "sp"
        if g_isext:
            if f_in_F:
                return zero
            # pull the class of g back along f
            f1 = self._lift_syzygy(kx, ky, a, f)
            return pz.coords_e1(g.compose(f1))
        if f_in_F:
            # g is a module map: push f forward along tau^{-1} g
            if self._is_inj(kz):
                return zero
            return coords_ext(self._tinv_mor(ky, kz, b, g).compose(f))
        return pz.coords_h0(g.compose(f))

    # -- sigma ----------------------------------------------------------------

    def sigma_perm(self) -> list[int]:
        """sigma is tau on modules: sigma(tau^{-1} N) = N for every
        non-injective N, read off the tau^{-1} table the maps fill; sigma
        sends P_v to SP_v and SP_v to I_v."""
        index = {k: i for i, k in enumerate(self.keys)}
        out = [0] * len(self.keys)
        for iv in self.intervals:
            if not self.ctx.is_injective(iv):
                out[index[("mod",) + self.ctx.tau_inv_interval(iv)]] = index[("mod",) + iv]
        for v in range(1, self.n + 1):
            out[index[("mod",) + proj_interval(self.quiver, v)]] = index[("sp", v)]
            out[index[("sp", v)]] = index[("mod",) + inj_interval(self.quiver, v)]
        return out

    # -- final assembly ---------------------------------------------------------

    def build(self) -> CategoryPresentation:
        keys = self.keys
        for kx in keys:
            for ky in keys:
                self.pairs[(kx, ky)] = self.build_pair(kx, ky)
        dims = [[self.pairs[(kx, ky)].dim for ky in keys] for kx in keys]
        identities = []
        for kx in keys:
            pd = self.pairs[(kx, kx)]
            if kx[0] == "mod":
                ident = identity_hom(self.reps[kx])
            else:
                ident = identity_hom(self.pj[kx[1]])
            identities.append(pd.coords_h0(ident))
        names = [self.names[k] for k in keys]
        sigma = self.sigma_perm()
        labelling = _labelling(self.n, sigma, dims)
        product = word_product(
            self.field, dims, identities, _irreducible_maps(self.n, labelling, dims),
            lambda i, j, k, a, b: self.compose_basis(keys[i], keys[j], keys[k], a, b),
        )
        if product is None:
            raise GenerationError("the words of the irreducible maps do not span every Hom space")
        hom, comp = structure_constants(self.field, dims, product)
        metadata = {
            "name": f"C(A{self.n})",
            "n": self.n,
            "orientation": self.quiver.orientation,
            "two_cy": True,
            "generator": "quotcat.clustergen",
            "aliases": dict(sorted(self.aliases.items())),
            "labelling": {names[i]: list(d) for i, d in enumerate(labelling)},
        }
        P = CategoryPresentation(
            self.field,
            names,
            hom,
            comp,
            identities,
            sigma=sigma,
            metadata=metadata,
        )
        return P


def _labelling(n: int, sigma: list[int], dims) -> list:
    """The diagonal of each indecomposable; GenerationError if none fits dims."""
    lab = search_labelling(DiagonalModel(n), sigma, dims)
    if lab is None:
        raise GenerationError("no rotation-equivariant diagonal labelling matches the table")
    return lab


def _irreducible_maps(n: int, labelling: list, dims) -> dict:
    """(i, j) -> every basis element of Hom(i, j), for the irreducible i -> j.

    In the polygon model (Caldero-Chapoton-Schiffler 2006) an irreducible
    map rotates one endpoint of a diagonal one step: i -> j when j's
    diagonal is i's with one endpoint moved +1 and Hom(i, j) != 0.
    """
    N = n + 3
    at = {d: j for j, d in enumerate(labelling)}
    gens = {}
    for i, (a, b) in enumerate(labelling):
        for d in ((a + 1, b), (a, b + 1)):
            j = at.get(tuple(sorted(x % N for x in d)))  # None for a side of the polygon
            if j is not None and dims[i][j]:
                gens[(i, j)] = list(range(dims[i][j]))
    return gens


def build_cluster_category(n: int, orientation: str | None = None, field: Field = QQ) -> CategoryPresentation:
    """Generate the cluster category of A_n as a validated presentation.

    The output carries the suspension permutation, object names (P_i, I_i,
    S_i, M[a,b], SP_i) and the diagonal labelling in its metadata.  Only the
    products s o y with s an irreducible map, read off the labelling, are
    computed from module maps and cocycles; fincat.word_product derives the
    other structure constants from them.  The construction aborts with
    GenerationError if any internal consistency check (oracle table, words
    of the irreducible maps spanning every Hom space, validation with its
    Serre symmetry) fails.
    """
    builder = _ClusterBuilder(n, orientation, field)
    P = builder.build()
    expected = n * (n + 3) // 2
    if P.n != expected:
        raise GenerationError(f"expected {expected} indecomposables, got {P.n}")
    rep = validate_category(P)
    if not rep.ok:
        raise GenerationError(f"generated presentation invalid: {rep}")
    for i in range(P.n):
        for j in range(P.n):
            if P.hom_dim(i, j) > 1:
                raise GenerationError(f"hom dimension > 1 at ({i}, {j})")
    return P


def diagonal_dimension_oracle(n: int):
    """Full expected-dimension table of the diagonal model, keyed by pairs."""
    model = DiagonalModel(n)
    return {
        (da, db): model.expected_dim(da, db)
        for da in model.diagonals
        for db in model.diagonals
    }
