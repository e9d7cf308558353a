"""Exact rational linear algebra.

Matrices over the rationals (``fractions.Fraction`` entries), canonical
subspace representations via reduced row-echelon bases, and the linear
solvers everything else is built on.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Q = Fraction
_ZERO = Q(0)  # shared by the zero entries the kernel writes

__all__ = [
    "Q",
    "Matrix",
    "Subspace",
    "BilinearForm",
    "rref",
    "kernel",
    "solve",
    "vec_sub",
    "vec_scale",
    "vec_is_zero",
    "zero_vec",
    "lincomb",
]


def _frac_row(row: Iterable) -> tuple:
    # values are almost always Fractions already; skip the (slow)
    # re-coercion in that case
    return tuple(x if type(x) is Q else Q(x) for x in row)


def zero_vec(n: int) -> tuple:
    return (Q(0),) * n


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, u: Sequence[Fraction]) -> tuple:
    c = Q(c)
    return tuple(c * a for a in u)


def vec_is_zero(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def lincomb(coeffs: Iterable, vectors: Iterable[Sequence[Fraction]],
            n: int) -> tuple:
    """Σ cᵢ·vᵢ in dimension n, skipping zero coefficients and entries."""
    acc = [_ZERO] * n
    for c, v in zip(coeffs, vectors, strict=True):
        if c:
            for k, x in enumerate(v):
                if x:
                    acc[k] += c * x
    return tuple(acc)


class Matrix:
    """Immutable dense matrix of Fractions (rows-major)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(_frac_row(r) for r in data)
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.cols:
                raise ValueError("ragged rows")

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return _matrix(tuple((_ZERO,) * cols for _ in range(rows)),
                       rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix(tuple(
            tuple(Q(1) if i == j else _ZERO for j in range(n)) for i in range(n)
        ), n, n)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _matrix(tuple(
            tuple(a + b if b else a for a, b in zip(r, s))
            for r, s in zip(self.data, other.data)
        ), self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _matrix(tuple(
            tuple(a - b if b else a for a, b in zip(r, s))
            for r, s in zip(self.data, other.data)
        ), self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Q(c)
        # a zero entry stays itself, so scale(0) is still all zeros
        return _matrix(tuple(tuple(c * a if a else a for a in r)
                             for r in self.data), self.rows, self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # nonzero (col, value) pairs of each row of the right factor,
        # listed once; each output row accumulates only over the
        # nonzero entries of the left row
        orows = [[(j, b) for j, b in enumerate(r) if b] for r in other.data]
        ncols = other.cols
        out = []
        for r in self.data:
            acc = {}
            for a, orow in zip(r, orows):
                if a:
                    for j, b in orow:
                        if j in acc:
                            acc[j] += a * b
                        else:
                            acc[j] = a * b
            out.append(tuple(acc.get(j, _ZERO) for j in range(ncols)))
        return _matrix(tuple(out), self.rows, ncols)

    def mulvec(self, v: Sequence[Fraction]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        nz = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for r in self.data:
            s = _ZERO
            for j, x in nz:
                a = r[j]
                if a:
                    s += a * x
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        # Matrix(cols).transpose() is the matrix whose columns are cols;
        # an r×0 matrix transposes to 0×r, and the entries are shared
        return _matrix(tuple(zip(*self.data)) if self.rows
                       else ((),) * self.cols, self.cols, self.rows)

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.data)

    def rank(self) -> int:
        return len(_rref_rows(self.data))

    def __pow__(self, k: int) -> "Matrix":
        if self.rows != self.cols or k < 0:
            raise ValueError("bad power")
        out = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __repr__(self):
        return "Matrix(%r)" % ([[str(x) for x in r] for r in self.data],)


def _matrix(data: tuple, rows: int, cols: int) -> Matrix:
    """A Matrix of the given shape on rows of Fractions, which are
    taken as they are: nothing is copied or coerced."""
    m = Matrix.__new__(Matrix)
    m.data = data
    m.rows, m.cols = rows, cols
    return m


def _rref_rows(rows: Iterable[Sequence[Fraction]]) -> list:
    """Gauss-Jordan on the nonzero rows given; returns the nonzero rows
    of the unique RREF as new lists.  Zero rows are dropped here, so
    callers may hand in constraint systems with all-zero rows."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    piv = 0
    pivots = []
    for c in range(ncols):
        hit = None
        for r in range(piv, len(rows)):
            if rows[r][c] != 0:
                hit = r
                break
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        inv = 1 / rows[piv][c]
        if inv != 1:
            rows[piv] = [x * inv for x in rows[piv]]
        prow = rows[piv]
        for r in range(len(rows)):
            if r == piv:
                continue
            f = rows[r][c]
            if f:
                rr = rows[r]
                rows[r] = [a - f * b if b else a
                           for a, b in zip(rr, prow)]
        pivots.append(c)
        piv += 1
        if piv == len(rows):
            break
    return rows[:piv]


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form, zero rows dropped."""
    out = _rref_rows(m.data)
    return _matrix(tuple(tuple(r) for r in out), len(out), m.cols)


def _pivot_cols(rref_rows) -> list:
    piv = []
    for r in rref_rows:
        for c, x in enumerate(r):
            if x != 0:
                piv.append(c)
                break
    return piv


def _null_space(red, piv, n: int) -> "Subspace":
    """Null space, in dimension n, of the system whose RREF rows are red
    (pivots piv); the rows may carry extra columns after the n-th."""
    pivset = set(piv)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [_ZERO] * n
        v[f] = Q(1)
        # back-substitute pivot coordinates
        for r, p in zip(red, piv):
            v[p] = -r[f]
        basis.append(v)
    return Subspace.from_vectors(n, basis)


def kernel(m: Matrix) -> "Subspace":
    """Null space {x : m·x = 0} as a Subspace of dimension m.cols."""
    red = _rref_rows(m.data)
    return _null_space(red, _pivot_cols(red), m.cols)


def solve(a: Matrix, b: Sequence[Fraction]):
    """Exact solution set of a·x = b.

    Returns (particular, kernel_subspace) or None when inconsistent.

    One elimination serves both.  Let R = RREF([a | b]).  When the
    system is consistent, no row of R has its pivot in the last column,
    so the left blocks of R's rows are nonzero, with leading ones in
    increasing columns that are zero elsewhere in their column: the
    left block L is in reduced row-echelon form.  Row operations on
    [a | b] act on a alone in the left block, and the rows dropped as
    zero are zero there too, so L spans the row space of a.  The RREF
    of a matrix is unique, hence L = RREF(a), and the kernel read off
    R is kernel(a), built by the same back-substitution.
    """
    if len(b) != a.rows:
        raise ValueError("shape mismatch")
    red = _rref_rows(r + (Q(x),) for r, x in zip(a.data, b))
    piv = _pivot_cols(red)
    if a.cols in piv:  # pivot in augmented column: inconsistent
        return None
    x = [Q(0)] * a.cols
    for r, p in zip(red, piv):
        x[p] = r[-1]
    return tuple(x), _null_space(red, piv, a.cols)


class Subspace:
    """Linear subspace in canonical form: RREF basis rows.

    Equality is structural — two Subspace values describe the same
    subspace iff their basis matrices agree entry-by-entry.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols not in (ambient_dim, 0):
            raise ValueError("ambient mismatch")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = _pivot_cols(basis.data)
        if len(self._pivots) != basis.rows:
            raise ValueError("basis not in reduced row-echelon form")

    @staticmethod
    def from_vectors(ambient_dim: int, vecs: Iterable[Sequence]) -> "Subspace":
        rows = [_frac_row(v) for v in vecs]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("ambient mismatch")
        red = _rref_rows(rows)
        return Subspace(ambient_dim, _matrix(tuple(tuple(r) for r in red),
                                             len(red), ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace.from_vectors(ambient_dim, [])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> tuple:
        return self.basis.data

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)

    def reduce(self, v: Sequence[Fraction]) -> tuple:
        """Canonical residual of v modulo this subspace.

        Subtracts basis rows to zero out the pivot coordinates; the
        result is 0 iff v lies in the subspace.
        """
        w = list(_frac_row(v))
        if len(w) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        for row, p in zip(self.basis.data, self._pivots):
            f = w[p]
            if f:
                w = [a - f * b if b else a for a, b in zip(w, row)]
        return tuple(w)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return vec_is_zero(self.reduce(v))

    def coordinates_of(self, v: Sequence[Fraction]) -> Optional[tuple]:
        """Coefficients of v on the canonical basis rows, or None."""
        v = _frac_row(v)
        coeffs = tuple(v[p] for p in self._pivots)
        w = list(v)
        for c, row in zip(coeffs, self.basis.data):
            if c:
                w = [a - c * b if b else a for a, b in zip(w, row)]
        if not vec_is_zero(w):
            return None
        return coeffs

    def contains(self, other: "Subspace") -> bool:
        """True iff other ⊆ self."""
        self._check(other)
        return all(self.contains_vector(v) for v in other.vectors())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(
            self.ambient_dim, self.vectors() + other.vectors()
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-style: kernel of the stacked coefficient system."""
        self._check(other)
        # x = Σ a_i u_i = Σ b_j v_j  ⇔  (a,b) in kernel of [U^T | -V^T]
        n = self.ambient_dim
        du, dv = self.dim, other.dim
        if du == 0 or dv == 0:
            return Subspace.zero(n)
        cols = self.basis.data + tuple(
            tuple(-x for x in v) for v in other.basis.data
        )
        ker = kernel(Matrix(cols).transpose())
        vecs = [lincomb(k[:du], self.basis.data, n) for k in ker.vectors()]
        return Subspace.from_vectors(n, vecs)

    def perp(self, form: "BilinearForm") -> "Subspace":
        """{x : ⟨x, s⟩ = 0 for all s in this subspace}."""
        if form.ambient_dim != self.ambient_dim:
            raise ValueError("ambient mismatch")
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        return kernel(self.basis * form.gram)

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


class BilinearForm:
    """Symmetric bilinear form given by its Gram matrix."""

    __slots__ = ("ambient_dim", "gram")

    def __init__(self, gram: Matrix):
        if gram.rows != gram.cols:
            raise ValueError("gram not square")
        if gram != gram.transpose():
            raise ValueError("gram not symmetric")
        self.ambient_dim = gram.rows
        self.gram = gram

    def radical(self) -> Subspace:
        return kernel(self.gram)

    def is_nondegenerate(self) -> bool:
        return self.radical().dim == 0

    def restrict(self, basis_vectors: Sequence[Sequence[Fraction]]) -> "BilinearForm":
        """Gram matrix of the form on the given vectors."""
        v = (Matrix(basis_vectors) if len(basis_vectors)
             else Matrix.zero(0, self.ambient_dim))
        return BilinearForm(v * self.gram * v.transpose())

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)
