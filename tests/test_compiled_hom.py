"""Differential tests: the compiled pre/post-composition matrices against
their definition.

precompose_matrices and postcompose_matrix are assembled straight from the
structure constants, and precompose_matrix from the blocks of
precompose_matrices.  The reference below is the definition they replace:
compose with every hom_basis element and transpose the columns.  Exact
arithmetic means the two must agree entry for entry, on random morphisms
between random multi-copy objects.
"""

from functools import lru_cache
from itertools import accumulate

from hypothesis import given, settings, strategies as st

from quotcat.clustergen import build_cluster_category
from quotcat.fincat import (
    CategoryPresentation,
    Morphism,
    Obj,
    compose,
    opposite,
    postcompose_matrix,
    precompose_matrices,
    precompose_matrix,
    validate_category,
)
from quotcat.linalg import _ENTRYLESS, GF, QQ, Matrix, block_diagonal_kernel_basis
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification


def reference_precompose(P, f, Z):
    cols = [compose(P, v, f).to_vector() for v in P.hom_basis(f.target, Z)]
    rows = len(P.zero_morphism(f.source, Z).to_vector())
    return Matrix(P.field, rows, len(cols), [[col[i] for col in cols] for i in range(rows)])


def reference_postcompose(P, f, Z):
    cols = [compose(P, f, u).to_vector() for u in P.hom_basis(Z, f.source)]
    rows = len(P.zero_morphism(Z, f.target).to_vector())
    return Matrix(P.field, rows, len(cols), [[col[i] for col in cols] for i in range(rows)])


def reference_hom_space_dim(P, X, Y):
    return sum(P.hom_dim(i, j) for i in X.copies() for j in Y.copies())


def truncated_polynomials(field=QQ):
    """One object with End = k[x]/(x^3): Hom blocks of dimension 3."""
    one, zero = field.one, field.zero
    table = [[[one if c == a + b else zero for c in range(3)] for b in range(3)] for a in range(3)]
    return CategoryPresentation(field, ["pt"], {(0, 0): 3}, {(0, 0, 0): table}, [[one, zero, zero]])


def kronecker(field=QQ):
    """x => y: two arrows, so Hom(x, y) is two-dimensional."""
    one = field.one
    comp = {
        (0, 0, 0): [[[one]]],
        (1, 1, 1): [[[one]]],
        (0, 0, 1): [[[one, field.zero], [field.zero, one]]],
        (0, 1, 1): [[[one, field.zero]], [[field.zero, one]]],
    }
    return CategoryPresentation(field, ["x", "y"], {(0, 0): 1, (1, 1): 1, (0, 1): 2}, comp, [[one], [one]])


@lru_cache(maxsize=None)
def categories():
    a3 = build_cluster_category(3)
    a4 = build_cluster_category(4, "><>", GF(101))
    bases = [
        a3,
        a4,
        build_quotient(a3, a3.obj({"P2": 1})).presentation,
        build_quotient(a4, a4.obj({"I1": 1, "P1": 1})).presentation,
        truncated_polynomials(),
        kronecker(GF(101)),
    ]
    return tuple(bases + [opposite(P) for P in bases])


def test_extra_categories_are_categories():
    for P in categories()[4:6]:
        assert validate_category(P).ok


@st.composite
def objects(draw, P):
    """Up to three distinct indecomposables with multiplicities 1..3."""
    support = draw(st.lists(st.integers(0, P.n - 1), min_size=1, max_size=3, unique=True))
    mult = [0] * P.n
    for i in support:
        mult[i] = draw(st.integers(1, 3))
    return Obj(tuple(mult))


@st.composite
def instances(draw):
    """(P, f, Z) with f a random morphism between random objects of P."""
    P = draw(st.sampled_from(categories()))
    X, Y, Z = draw(objects(P)), draw(objects(P)), draw(objects(P))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=P.hom_space_dim(X, Y), max_size=P.hom_space_dim(X, Y)))
    return P, Morphism.from_vector(P, X, Y, coeffs), Z


@settings(max_examples=80)
@given(instances())
def test_precompose_matrix_matches_definition(inst):
    P, f, Z = inst
    assert precompose_matrix(P, f, Z) == reference_precompose(P, f, Z)


@settings(max_examples=80)
@given(instances())
def test_one_pass_gives_every_single_block(inst):
    P, f, Z = inst
    blocks = precompose_matrices(P, f)
    assert len(blocks) == P.n
    for k, m in enumerate(blocks):
        assert m == precompose_matrix(P, f, P.single(k)) == reference_precompose(P, f, P.single(k))
        # an entry-less block is the one shared matrix of its shape
        if not m.nrows * m.ncols:
            assert m is Matrix.entryless(P.field, m.nrows, m.ncols)
    again = precompose_matrices(P, f)
    assert all((a is b) == (not a.nrows * a.ncols) for a, b in zip(blocks, again))
    # a multi-copy Z is the block assembly of its copies' blocks
    assembled = Matrix.block_diagonal(P.field, [blocks[k] for k in Z.copies()])
    assert assembled == precompose_matrix(P, f, Z) == reference_precompose(P, f, Z)


def test_a_verdict_leaves_the_shared_entry_less_blocks_entry_less():
    # every caller of the blocks shares them, so a verdict must change none
    a4 = categories()[1]
    rep = run_verification(a4, t_spec=a4.obj({"I1": 1, "P1": 1}))
    assert rep["overall"] == "pass"
    assert any(f is GF(101) for f, _, _ in _ENTRYLESS)
    for (fld, nrows, ncols), m in _ENTRYLESS.items():
        assert (m.field, m.nrows, m.ncols) == (fld, nrows, ncols)
        assert not nrows * ncols and m.data == [[] for _ in range(nrows)]


@settings(max_examples=80)
@given(instances())
def test_kernel_of_the_assembly_is_read_block_by_block(inst):
    # the cokernel search reads {c : c o f = 0} in Hom(Y, Z) off the blocks
    P, f, Z = inst
    blocks = precompose_matrices(P, f)
    by_blocks = block_diagonal_kernel_basis(P.field, [blocks[k] for k in Z.copies()])
    assert by_blocks == precompose_matrix(P, f, Z).kernel_basis()


@settings(max_examples=80)
@given(instances())
def test_postcompose_matrix_matches_definition(inst):
    P, f, Z = inst
    assert postcompose_matrix(P, f, Z) == reference_postcompose(P, f, Z)


@settings(max_examples=80)
@given(instances())
def test_hom_space_dim_matches_basis(inst):
    P, f, Z = inst
    for X, Y in ((f.source, f.target), (f.target, Z), (Z, f.source)):
        d = P.hom_space_dim(X, Y)
        assert d == reference_hom_space_dim(P, X, Y) == len(P.hom_basis(X, Y))
        # block (t, s) of Hom(X, Y) starts after Hom(X, j) for Y's earlier
        # copies j, at off[j_t][s]
        off, dims = P.hom_layout(X)
        starts = list(accumulate((dims[j] for j in Y.copies()), initial=0))
        assert starts[-1] == d
        zero = P.zero_morphism(X, Y)
        flat = [
            starts[t] + off[j][s] + c
            for t, (j, row) in enumerate(zip(Y.copies(), zero.blocks))
            for s, blk in enumerate(row)
            for c in range(len(blk))
        ]
        assert flat == list(range(d))
