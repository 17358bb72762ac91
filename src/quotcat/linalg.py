"""Exact dense linear algebra over Q and prime fields.

Everything downstream (category presentations, quotients, searches) runs on
this module.  There is no floating point anywhere: rationals are ints when
integral and reduced `fractions.Fraction`s otherwise, prime-field elements
are ints reduced mod p.  Rank is fraction-free (Bareiss elimination), so an
integer matrix never creates a `Fraction`.  All decisions (rank,
solvability, membership) are exact.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction

from .errors import FieldMismatch, ShapeError


class Field:
    """A computable field: the rationals or F_p for a prime p."""

    def of(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def bareiss_row(self, nums, prev):
        """Finish one fraction-free elimination step: nums / prev in the field.

        nums is p*x - a*y, computed with the number operators on a row x, the
        pivot row y, its pivot p and a = x[c]; prev is the previous pivot.
        """
        raise NotImplementedError

    def fmt(self, a) -> str:
        raise NotImplementedError


def _fraction(text: str) -> Fraction:
    """Fraction(text) for ASCII text only: Fraction also reads other
    scripts' digits, which would not be written back as read."""
    if not text.isascii():
        raise ValueError(f"{text!r} is not an ASCII fraction string")
    return Fraction(text)


def _rational(r):
    """The element of QQ equal to the int, bool or Fraction r."""
    if type(r) is int:
        return r
    return r.numerator if r.denominator == 1 else r


class RationalField(Field):
    """Exact rationals: an int when integral, a reduced Fraction otherwise.

    Every operation returns an int for an integral value, so integer
    matrices are computed on with int arithmetic alone.  1 and Fraction(1)
    compare and hash equal, so sets and dicts of elements do not change.
    """

    zero = 0
    one = 1

    def of(self, x):
        if isinstance(x, (int, Fraction)):
            return _rational(x)
        if isinstance(x, str):
            return _rational(_fraction(x))
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        r = a + b
        return r if type(r) is int else _rational(r)

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int else _rational(r)

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int else _rational(r)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        return _rational(1 / a)

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _rational(Fraction(a) / b)

    def bareiss_row(self, nums, prev):
        # Exact: the entries are minors of the matrix, divisible by prev.
        if prev == 1:
            return nums
        div = self.div
        return [div(n, prev) for n in nums]

    def fmt(self, a) -> str:
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def __repr__(self):
        return "QQ"


QQ = RationalField()

_PRIME_FIELDS: dict[int, "PrimeField"] = {}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField(Field):
    """Integers mod p for a prime p <= 2^31; elements are ints in [0, p)."""

    def __init__(self, p: int):
        # the bound first: trial division up to sqrt(p) takes too long beyond it
        if p > 2**31:
            raise ValueError(f"{p} is larger than 2^31")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator % self.p) * pow(den, -1, self.p) % self.p
        if isinstance(x, str):
            return self.of(_fraction(x))
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def bareiss_row(self, nums, prev):
        # The division by prev is left out: it only scales the row by a unit,
        # and entries reduced mod p cannot grow.
        p = self.p
        return [n % p for n in nums]

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self):
        return f"GF({self.p})"


def GF(p: int) -> PrimeField:
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]


def _check_same_field(a: "Matrix", b: "Matrix"):
    if a.field is not b.field:
        raise FieldMismatch(f"mixed fields {a.field!r} and {b.field!r}")


_ENTRYLESS: dict[tuple, "Matrix"] = {}  # (field, nrows, ncols) -> Matrix.entryless


class Matrix:
    """Dense row-major matrix over a fixed field.  Treated as immutable.

    The matrix takes ownership of the row lists it is given: a caller that
    keeps a row to change it later passes a copy.
    """

    __slots__ = ("field", "nrows", "ncols", "data", "_rref")

    def __init__(self, field: Field, nrows: int, ncols: int, data):
        if len(data) != nrows:
            raise ShapeError(f"expected {nrows} rows, got {len(data)}")
        for row in data:
            if len(row) != ncols:
                raise ShapeError(f"expected {ncols} columns, got {len(row)}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = data
        self._rref = None

    @classmethod
    def from_rows(cls, field: Field, rows, ncols: int | None = None) -> "Matrix":
        rows = [[field.of(x) for x in row] for row in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, field: Field, nrows: int, cols) -> "Matrix":
        """The nrows-row matrix whose columns are the vectors in the list cols."""
        data = [list(row) for row in zip(*cols)] if cols else [[] for _ in range(nrows)]
        return cls(field, nrows, len(cols), data)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def entryless(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        """The nrows x ncols matrix over field, for nrows or ncols zero.

        It has no entry, so it depends on the field and the shape alone: one
        object per (field, nrows, ncols) serves every caller.  A shape with
        entries is refused by the constructor, as its empty rows are short.
        """
        key = (field, nrows, ncols)
        m = _ENTRYLESS.get(key)
        if m is None:
            m = _ENTRYLESS[key] = cls(field, nrows, ncols, [[] for _ in range(nrows)])
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, n, n, [unit_vector(field, n, i) for i in range(n)])

    @classmethod
    def block_diagonal(cls, field: Field, blocks) -> "Matrix":
        """The matrix with blocks down its diagonal and zeros elsewhere.

        A single block is returned as it is.
        """
        if len(blocks) == 1:
            return blocks[0]
        zero = field.zero
        ncols = sum(b.ncols for b in blocks)
        data = []
        left = 0
        for b in blocks:
            pad_left, pad_right = [zero] * left, [zero] * (ncols - left - b.ncols)
            data.extend(pad_left + row + pad_right for row in b.data)
            left += b.ncols
        return cls(field, len(data), ncols, data)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __repr__(self):
        rows = "; ".join(" ".join(self.field.fmt(x) for x in row) for row in self.data)
        return f"Matrix({self.nrows}x{self.ncols}: {rows})"

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.data for x in row)

    def col(self, j):
        return [self.data[i][j] for i in range(self.nrows)]

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix addition shape mismatch")
        add = self.field.add
        return Matrix(
            self.field,
            self.nrows,
            self.ncols,
            [
                [add(self.data[i][j], other.data[i][j]) for j in range(self.ncols)]
                for i in range(self.nrows)
            ],
        )

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        c = self.field.of(c)
        return Matrix(
            self.field,
            self.nrows,
            self.ncols,
            [[mul(c, x) for x in row] for row in self.data],
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if self.ncols != other.nrows:
            raise ShapeError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        f = self.field
        zero, add, mul = f.zero, f.add, f.mul
        out = [[zero] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            arow = self.data[i]
            orow = out[i]
            for k in range(self.ncols):
                a = arow[k]
                if a == zero:
                    continue
                brow = other.data[k]
                for j in range(other.ncols):
                    b = brow[j]
                    if b != zero:
                        orow[j] = add(orow[j], mul(a, b))
        return Matrix(f, self.nrows, other.ncols, out)

    def apply(self, vec):
        """Matrix-vector product m * v."""
        if len(vec) != self.ncols:
            raise ShapeError(f"vector length {len(vec)} != {self.ncols} columns")
        f = self.field
        out = []
        for i in range(self.nrows):
            s = f.zero
            row = self.data[i]
            for j, v in enumerate(vec):
                if v != f.zero:
                    s = f.add(s, f.mul(row[j], v))
            out.append(s)
        return out

    def rref(self):
        """Reduced row echelon form: (rows, pivots) of
        RowSpace.from_rows(field, ncols, data), its nonzero rows in pivot
        order and their pivot columns.  Computed once per matrix; the lists
        are shared, so callers do not change them.
        """
        if self._rref is None:
            self._rref = RowSpace.from_rows(self.field, self.ncols, self.data)
        return self._rref.rows, self._rref.pivots

    def rank(self) -> int:
        """Rank.

        A matrix with one row or one column, most of the search's condition
        matrices, has rank 1 if an entry is nonzero and 0 otherwise; any
        other is eliminated by _bareiss_rank.
        """
        if self.nrows <= 1 or self.ncols <= 1:
            return int(any(map(any, self.data)))
        return self._bareiss_rank()

    def _bareiss_rank(self) -> int:
        """Rank by fraction-free elimination (Bareiss, 1968).

        At each pivot y with pivot entry p in column c, every other remaining
        row x becomes (p*x - x[c]*y) / prev, where prev is the pivot of the
        step before; no pivot is inverted.  Over Q the division is exact and
        the entries stay minors of the matrix; Field.bareiss_row does it.
        Only the columns right of c are kept.
        """
        step = self.field.bareiss_row
        rows = list(self.data)
        rank, prev, start = 0, 1, 0
        for c in range(self.ncols):
            k = c - start  # the rows hold columns start.. only
            i = next((i for i, x in enumerate(rows) if x[k]), None)
            if i is None:
                continue
            y = rows.pop(i)
            p = y[k]
            rank += 1
            if not rows:
                break
            tail = y[k + 1 :]
            rows = [step([p * u - x[k] * v for u, v in zip(x[k + 1 :], tail)], prev) for x in rows]
            prev, start = p, c + 1
        return rank

    def kernel_basis(self):
        """Basis of the right kernel {v : m v = 0}, as column vectors (lists):
        one per free column of the rref, which the pivot rows solve for."""
        f = self.field
        rows, pivots = self.rref()
        basis = []
        for fc in self._rref.complement_indices():
            v = unit_vector(f, self.ncols, fc)
            for row, pc in zip(rows, pivots):
                v[pc] = f.neg(row[fc])
            basis.append(v)
        return basis

    def solve(self, b):
        """Some x with m x = b, or None when the system is inconsistent."""
        if len(b) != self.nrows:
            raise ShapeError(f"rhs length {len(b)} != {self.nrows} rows")
        X = self.solve_matrix(Matrix.from_columns(self.field, self.nrows, [b]))
        return None if X is None else [row[0] for row in X.data]

    def solve_matrix(self, B: "Matrix"):
        """Some X with self * X = B, or None, from one rref of [self | B].

        The pivots in self's columns do not depend on B, and the system is
        inconsistent exactly when a pivot falls in B's columns; otherwise
        column j of X sets each pivot variable to its row's entry in column
        j of B and every free variable to zero.
        """
        _check_same_field(self, B)
        if B.nrows != self.nrows:
            raise ShapeError("solve_matrix shape mismatch")
        n = self.ncols
        aug = Matrix(self.field, self.nrows, n + B.ncols, [a + b for a, b in zip(self.data, B.data)])
        rows, pivots = aug.rref()
        if pivots and pivots[-1] >= n:
            return None
        data = [[self.field.zero] * B.ncols for _ in range(n)]
        for row, pc in zip(rows, pivots):
            data[pc] = row[n:]
        return Matrix(self.field, n, B.ncols, data)

    def inverse(self):
        """Two-sided inverse, or None if not square/invertible."""
        if self.nrows != self.ncols:
            return None
        return self.solve_matrix(Matrix.identity(self.field, self.nrows))


class RowSpace:
    """A row space kept in reduced echelon form for fast reduction queries.

    Used wherever a subspace must be quotiented out deterministically: the
    reduce() of a vector is its canonical coset representative.  It is the
    one echelon form of the package; Matrix.rref reads it.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows = []  # echelon rows
        self.pivots = []  # pivot column per row, strictly increasing order kept

    @classmethod
    def from_rows(cls, field: Field, width: int, rows) -> "RowSpace":
        rs = cls(field, width)
        for row in rows:
            rs.add(row)
        return rs

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Canonical representative of vec modulo the row space."""
        if len(vec) != self.width:
            raise ShapeError("vector width mismatch")
        sub, mul = self.field.sub, self.field.mul
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:  # zero is the int 0 in QQ and in GF(p)
                v = [sub(x, mul(c, y)) if y else x for x, y in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the space.

        The rows stay in pivot order, each with 1 at its pivot and 0 at every
        other row's pivot: the reduced row echelon form, which is unique.
        """
        v = self.reduce(vec)
        for p, a in enumerate(v):
            if a:
                break
        else:
            return False
        f = self.field
        sub, mul = f.sub, f.mul
        if a != f.one:
            inv = f.inv(a)
            v = [mul(inv, x) for x in v]
        rows = self.rows
        for i, row in enumerate(rows):
            c = row[p]
            if c:
                rows[i] = [sub(x, mul(c, y)) if y else x for x, y in zip(row, v)]
        i = bisect(self.pivots, p)
        rows.insert(i, v)
        self.pivots.insert(i, p)
        return True

    def complement_indices(self):
        """Coordinate indices of the canonical complement (non-pivot slots)."""
        pivset = set(self.pivots)
        return [j for j in range(self.width) if j not in pivset]


def intertwiners(field: Field, src_dims, tgt_dims, relations):
    """Basis of the families (phi_v) with phi_t * a = b * phi_s for every relation.

    phi_v is a tgt_dims[v] x src_dims[v] matrix; each relation (s, t, a, b)
    has a: src_dims[s] -> src_dims[t] and b: tgt_dims[s] -> tgt_dims[t].
    A basis vector lists the entries of every phi_v row-major, in vertex order.
    """
    offsets = [0]
    for c, r in zip(src_dims, tgt_dims):
        offsets.append(offsets[-1] + r * c)
    rows = []
    for s, t, a, b in relations:
        for i in range(tgt_dims[t]):
            for j in range(src_dims[s]):
                row = [field.zero] * offsets[-1]
                # (phi_t * a)[i][j] = sum_l phi_t[i][l] * a[l][j]
                for l in range(src_dims[t]):
                    idx = offsets[t] + i * src_dims[t] + l
                    row[idx] = field.add(row[idx], a.data[l][j])
                # (b * phi_s)[i][j] = sum_l b[i][l] * phi_s[l][j]
                for l in range(tgt_dims[s]):
                    idx = offsets[s] + l * src_dims[s] + j
                    row[idx] = field.sub(row[idx], b.data[i][l])
                rows.append(row)
    return Matrix(field, len(rows), offsets[-1], rows).kernel_basis()


def block_diagonal_kernel_basis(field: Field, blocks):
    """Matrix.block_diagonal(field, blocks).kernel_basis(), block by block.

    Each block's rref is the block diagonal matrix's rref on the block's own
    columns, so the free columns, and with them the basis vectors, come block
    by block in column order: each block's kernel basis, in its place.
    """
    width = sum(b.ncols for b in blocks)
    zero = field.zero
    out, left = [], 0
    for b in blocks:
        for v in b.kernel_basis():
            vec = [zero] * width
            vec[left : left + b.ncols] = v
            out.append(vec)
        left += b.ncols
    return out


def unit_vector(field: Field, d: int, a: int) -> list:
    """Basis vector a of field^d."""
    vec = [field.zero] * d
    vec[a] = field.one
    return vec


def vec_add(field: Field, u, v):
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_scale(field: Field, c, v):
    return [field.mul(c, x) for x in v]


def vec_is_zero(field: Field, v) -> bool:
    return all(x == field.zero for x in v)
