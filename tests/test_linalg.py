import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quotcat.errors import FieldMismatch, ShapeError
from quotcat.linalg import GF, QQ, Matrix, RowSpace, intertwiners


def test_rank_empty_matrix():
    m = Matrix.zeros(QQ, 0, 0)
    assert m.rank() == 0


def test_rank_identity():
    assert Matrix.identity(QQ, 2).rank() == 2


def test_rank_dependent_rows():
    # row reduction by hand: second row is twice the first
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_rank_transpose_invariant():
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        m = Matrix.from_rows(QQ, rows, ncols=nc)
        mt = Matrix.from_rows(QQ, [list(col) for col in zip(*rows)], ncols=nr)
        assert m.rank() == mt.rank()


def test_kernel_identity_empty():
    assert Matrix.identity(QQ, 3).kernel_basis() == []


def test_kernel_zero_matrix_full():
    assert len(Matrix.zeros(QQ, 2, 3).kernel_basis()) == 3


def test_kernel_explicit():
    # solved by hand: kernel of [[1,1,0],[0,0,1]] is spanned by (1,-1,0)
    m = Matrix.from_rows(QQ, [[1, 1, 0], [0, 0, 1]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v[2] == 0 and v[0] == -v[1] and v[0] != 0


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(0, 5), rng.randint(0, 5)
        m = Matrix.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)], ncols=nc)
        ker = m.kernel_basis()
        assert m.rank() + len(ker) == nc
        for v in ker:
            assert all(x == 0 for x in m.apply(v))


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    b = [QQ.of(1), QQ.of(2), QQ.of(3)]
    assert m.solve(b) == b


def test_solve_unsolvable():
    m = Matrix.zeros(QQ, 2, 2)
    assert m.solve([QQ.of(1), QQ.of(0)]) is None


def test_solve_scalar_division():
    m = Matrix.from_rows(QQ, [[2]])
    assert m.solve([QQ.of(1)]) == [QQ.of("1/2")]


def test_solve_shape_error():
    m = Matrix.identity(QQ, 2)
    with pytest.raises(ShapeError):
        m.solve([QQ.of(1)])


def test_solve_random_consistency():
    rng = random.Random(3)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)])
        x = [QQ.of(rng.randint(-2, 2)) for _ in range(nc)]
        b = m.apply(x)
        sol = m.solve(b)
        assert sol is not None
        assert m.apply(sol) == b


def test_prime_field_arithmetic():
    f = GF(5)
    assert f.add(3, 4) == 2
    assert f.inv(2) == 3
    assert f.of(-1) == 4
    m = Matrix.from_rows(f, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv is not None
    assert m * inv == Matrix.identity(f, 2)


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)


def test_field_mismatch():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF(5), 2)
    with pytest.raises(FieldMismatch):
        a * b


def test_matmul_and_inverse_rationals():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 5]])
    inv = m.inverse()
    assert inv is not None
    assert m * inv == Matrix.identity(QQ, 2)
    assert inv * m == Matrix.identity(QQ, 2)


def test_rowspace_reduce_and_complement():
    rs = RowSpace.from_rows(QQ, 3, [[QQ.of(1), QQ.of(1), QQ.of(0)]])
    assert rs.dim == 1
    assert rs.contains([QQ.of(2), QQ.of(2), QQ.of(0)])
    assert not rs.contains([QQ.of(1), QQ.of(0), QQ.of(0)])
    assert rs.complement_indices() == [1, 2]
    red = rs.reduce([QQ.of(1), QQ.of(0), QQ.of(1)])
    assert red[0] == 0


def _coords_in_basis(rs, vec):
    """Coefficients of vec against the echelon rows of rs, or None if outside."""
    f = rs.field
    v = list(vec)
    coeffs = []
    for row, p in zip(rs.rows, rs.pivots):
        c = v[p]
        coeffs.append(c)
        if c != f.zero:
            v = [f.sub(v[j], f.mul(c, row[j])) for j in range(rs.width)]
    return None if any(x != f.zero for x in v) else coeffs


def test_rowspace_coords():
    rows = [[QQ.of(1), QQ.of(0), QQ.of(1)], [QQ.of(0), QQ.of(1), QQ.of(1)]]
    rs = RowSpace.from_rows(QQ, 3, rows)
    v = [QQ.of(2), QQ.of(3), QQ.of(5)]
    coords = _coords_in_basis(rs, v)
    assert coords is not None
    rebuilt = [QQ.zero] * 3
    for c, row in zip(coords, rs.rows):
        rebuilt = [QQ.add(r, QQ.mul(c, x)) for r, x in zip(rebuilt, row)]
    assert rebuilt == v
    assert _coords_in_basis(rs, [QQ.of(1), QQ.of(1), QQ.of(0)]) is None


# -- fraction-free rank against rref, and the int/Fraction contract of QQ --


def _rref_rank(m):
    """Rank from the rref of a copy, so m keeps no cached rref."""
    return len(Matrix(m.field, m.nrows, m.ncols, m.data).rref()[1])


@st.composite
def matrices(draw):
    """A matrix up to 12x12 over QQ, GF(101) or GF(2), with repeated rows.

    Over QQ the entries are mostly ints (pivots up to 6 in size, so rarely
    units) and some Fractions.
    """
    field = draw(st.sampled_from([QQ, GF(101), GF(2)]))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    ints = st.integers(-6, 6)
    entry = st.one_of(ints, st.fractions(-3, 3, max_denominator=4)) if field is QQ else ints
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3)):
        if i < nrows and j < nrows:
            rows[i] = list(rows[j])
    return Matrix.from_rows(field, rows, ncols=ncols)


@settings(max_examples=300)
@given(matrices())
def test_rank_matches_rref(m):
    assert m.rank() == _rref_rank(m)


@st.composite
def thin_matrices(draw):
    """A matrix with one row or one column (or none), up to 12 long, over
    QQ, GF(101) or GF(2); zero entries are drawn often, so all-zero ones
    come up, and over QQ some entries are Fractions."""
    field = draw(st.sampled_from([QQ, GF(101), GF(2)]))
    length = draw(st.integers(0, 12))
    ints = st.one_of(st.just(0), st.integers(-6, 6))
    entry = st.one_of(ints, st.fractions(-3, 3, max_denominator=4)) if field is QQ else ints
    line = draw(st.lists(entry, min_size=length, max_size=length))
    if draw(st.booleans()):
        return Matrix.from_rows(field, [line], ncols=length)
    return Matrix.from_rows(field, [[x] for x in line], ncols=1)


@settings(max_examples=300)
@given(thin_matrices())
def test_thin_rank_is_the_bareiss_rank(m):
    # the closed form reads the entries only; the elimination it skips agrees
    assert m.rank() == m._bareiss_rank() == _rref_rank(m)
    assert m.rank() == int(not m.is_zero())


def test_rank_of_dense_integer_matrix_stays_fast():
    # Without the exact division by the previous pivot, entry sizes double
    # at every step and this does not finish.
    rng = random.Random(30)
    m = Matrix.from_rows(QQ, [[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)])
    assert m.rank() == _rref_rank(m)


def _solve_by_columns(A, B):
    """Some X with A X = B, or None, by one rref of [A | b] per column b of
    B: the column-by-column solve that solve_matrix's one elimination
    replaced."""
    f, n = A.field, A.ncols
    cols = []
    for j in range(B.ncols):
        aug = Matrix(f, A.nrows, n + 1, [row + [B.data[i][j]] for i, row in enumerate(A.data)])
        reduced, pivots = aug.rref()
        if n in pivots:
            return None
        x = [f.zero] * n
        for r, pc in enumerate(pivots):
            x[pc] = reduced[r][n]
        cols.append(x)
    return Matrix(f, n, B.ncols, [[c[i] for c in cols] for i in range(n)])


@st.composite
def systems(draw):
    """(A, B) over QQ or GF(7), A up to 6x6 and B up to 4 columns; each
    column of B is A times a drawn vector (consistent) or drawn outright
    (often inconsistent when A is rank-deficient)."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    ints = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    A = Matrix.from_rows(field, rows, ncols=ncols)
    cols = []
    for consistent in draw(st.lists(st.booleans(), max_size=4)):
        if consistent:
            cols.append(A.apply([field.of(x) for x in draw(st.lists(ints, min_size=ncols, max_size=ncols))]))
        else:
            cols.append([field.of(x) for x in draw(st.lists(ints, min_size=nrows, max_size=nrows))])
    B = Matrix(field, nrows, len(cols), [[c[i] for c in cols] for i in range(nrows)])
    return A, B


@settings(max_examples=300)
@given(systems())
def test_solve_matrix_is_the_column_by_column_solve(system):
    A, B = system
    X = A.solve_matrix(B)
    assert X == _solve_by_columns(A, B)
    cols = [A.solve(B.col(j)) for j in range(B.ncols)]
    if X is None:
        assert None in cols
    else:
        assert A * X == B
        assert cols == [X.col(j) for j in range(B.ncols)]
    if A.nrows == A.ncols:
        inv = A.inverse()
        assert (inv is None) == (A.rank() < A.nrows)
        assert inv is None or A * inv == Matrix.identity(A.field, A.nrows) == inv * A


# -- rref, kernel_basis and solve_matrix against a Gauss-Jordan oracle --


def _gauss_jordan(m):
    """(rows, pivots) of m's reduced row echelon form by column-wise
    Gauss-Jordan elimination with first-nonzero pivoting, an elimination
    independent of RowSpace's.  All nrows rows are returned, the zero rows
    last."""
    f = m.field
    zero = f.zero
    rows = list(m.data)  # each row is replaced, never changed in place
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, m.nrows):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [f.sub(rows[i][j], f.mul(factor, rows[r][j])) for j in range(m.ncols)]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return rows, pivots


def _oracle_kernel_basis(m):
    f = m.field
    rows, pivots = _gauss_jordan(m)
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [f.zero] * m.ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][fc])
        basis.append(v)
    return basis


def _oracle_solve_matrix(A, B):
    n = A.ncols
    aug = Matrix(A.field, A.nrows, n + B.ncols, [a + b for a, b in zip(A.data, B.data)])
    rows, pivots = _gauss_jordan(aug)
    if pivots and pivots[-1] >= n:
        return None
    data = [[A.field.zero] * B.ncols for _ in range(n)]
    for r, pc in enumerate(pivots):
        data[pc] = rows[r][n:]
    return Matrix(A.field, n, B.ncols, data)


_ENTRIES = {QQ: [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)], GF(5): [0, 0, 1, 2, 3, 4, -7]}


@st.composite
def echelon_cases(draw):
    """(A, B) over QQ (some entries Fractions) or GF(5), A up to 6x6 with 0
    rows or columns allowed and some rows zero, B with A's row count and up
    to 3 columns.  The entries are read off one drawn byte string, which is
    much faster to draw than one entry at a time."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    nrows, ncols, bcols = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 3))
    width = ncols + bcols
    table = _ENTRIES[field]
    data = draw(st.binary(min_size=nrows * width, max_size=nrows * width))
    rows = [[table[b % len(table)] for b in data[i * width : (i + 1) * width]] for i in range(nrows)]
    for i in draw(st.lists(st.integers(0, 5), max_size=2)):
        if i < nrows:
            rows[i][:ncols] = [0] * ncols
    A = Matrix.from_rows(field, [row[:ncols] for row in rows], ncols=ncols)
    return A, Matrix.from_rows(field, [row[ncols:] for row in rows], ncols=bcols)


@settings(max_examples=250)
@given(echelon_cases())
def test_rref_kernel_and_solve_match_the_gauss_jordan_oracle(case):
    A, B = case
    rows, pivots = _gauss_jordan(A)
    assert A.rref() == (rows[: len(pivots)], pivots)
    assert A.kernel_basis() == _oracle_kernel_basis(A)
    assert A.solve_matrix(B) == _oracle_solve_matrix(A, B)


@settings(max_examples=150)
@given(echelon_cases(), st.randoms(use_true_random=False))
def test_row_space_does_not_depend_on_insertion_order(case, rng):
    A, _ = case
    shuffled = list(A.data)
    rng.shuffle(shuffled)
    rs = RowSpace.from_rows(A.field, A.ncols, shuffled)
    assert (rs.rows, rs.pivots) == A.rref()
    assert rs.pivots == sorted(rs.pivots)


def test_integral_rationals_are_ints():
    for x in (3, -7, True, Fraction(4, 2), "3", "-6/3"):
        assert type(QQ.of(x)) is int
    assert QQ.of(Fraction(4, 2)) == 2 and QQ.of(True) == 1
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.mul(Fraction(1, 2), 2)) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int


def test_inverse_and_quotient_never_float():
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.div(6, -3) == -2 and type(QQ.div(6, -3)) is int
    values = [*range(-20, 21), Fraction(1, 2), Fraction(-5, 3)]
    for a in values:
        if a:
            assert a * QQ.inv(a) == 1 and not isinstance(QQ.inv(a), float)
        for b in values:
            if b:
                q = QQ.div(a, b)
                assert q == Fraction(a) / b and not isinstance(q, float)
                assert type(q) is int or q.denominator != 1


@st.composite
def intertwiner_systems(draw):
    """(p, src_dims, tgt_dims, relations) over GF(p) with at most 8 unknowns."""
    p = draw(st.sampled_from([2, 3]))
    nv = draw(st.integers(1, 3))
    src, tgt, room = [], [], 8
    for _ in range(nv):
        c = draw(st.integers(0, 3))
        r = draw(st.integers(0, min(3, room // c) if c else 3))
        src.append(c)
        tgt.append(r)
        room -= c * r
    entry = st.integers(0, p - 1)

    def matrix(nr, nc):
        return Matrix(GF(p), nr, nc, draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr)))

    relations = []
    for _ in range(draw(st.integers(0, 3))):
        s, t = draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1))
        relations.append((s, t, matrix(src[t], src[s]), matrix(tgt[t], tgt[s])))
    return p, src, tgt, relations


def _intertwines(p, src, tgt, relations, vec) -> bool:
    """phi_t * a == b * phi_s mod p for every relation, phi read off vec."""
    phi, pos = [], 0
    for c, r in zip(src, tgt):
        phi.append([vec[pos + i * c : pos + (i + 1) * c] for i in range(r)])
        pos += r * c
    for s, t, a, b in relations:
        for i in range(tgt[t]):
            for j in range(src[s]):
                lhs = sum(phi[t][i][l] * a.data[l][j] for l in range(src[t]))
                rhs = sum(b.data[i][l] * phi[s][l][j] for l in range(tgt[s]))
                if (lhs - rhs) % p:
                    return False
    return True


@settings(max_examples=60)
@given(intertwiner_systems())
def test_intertwiners_against_brute_force(system):
    p, src, tgt, relations = system
    total = sum(c * r for c, r in zip(src, tgt))
    basis = intertwiners(GF(p), src, tgt, relations)
    assert all(_intertwines(p, src, tgt, relations, v) for v in basis)
    assert RowSpace.from_rows(GF(p), total, basis).dim == len(basis)
    solutions = sum(
        _intertwines(p, src, tgt, relations, v) for v in itertools.product(range(p), repeat=total)
    )
    assert p ** len(basis) == solutions


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "F101"])
def test_scalar_strings_are_read_in_ascii_digits_only(field):
    # Fraction reads Arabic-Indic 3 as 3, which a file would not write back
    assert field.of("-2/3") == field.of(Fraction(-2, 3))
    with pytest.raises(ValueError, match="ASCII"):
        field.of("\u0663")
