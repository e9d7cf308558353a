"""Exact arithmetic the benchmark uses to build inputs and to check
answers without going through the library under test.

Vectors and matrices here are plain lists of ``Fraction``; nothing is
imported from ``liepar``.  Library objects are read only through their
public surface (``Subspace.vectors()``, ``Matrix[i, j]``, ``.rows``).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction as Q


def vectors_of(space) -> list:
    """Basis rows of a library Subspace as lists of Fractions."""
    return [[Q(x) for x in v] for v in space.vectors()]


def _echelon(rows: list) -> list:
    """Row echelon form (not reduced) of a copy of ``rows``; zero rows
    dropped."""
    rows = [list(r) for r in rows]
    out = []
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        hit = next((r for r in rows if r[c] != 0), None)
        if hit is None:
            continue
        rows.remove(hit)
        inv = 1 / hit[c]
        hit = [x * inv for x in hit]
        for i, r in enumerate(rows):
            f = r[c]
            if f:
                rows[i] = [a - f * b if b else a for a, b in zip(r, hit)]
        out.append(hit)
        if not rows:
            break
    return out


def rank(rows) -> int:
    return len(_echelon(list(rows)))


def same_span(a, b) -> bool:
    ra = rank(a)
    return ra == rank(b) == rank(list(a) + list(b))


def intersect(a, b, n: int) -> list:
    """Basis of span(a) ∩ span(b) by Zassenhaus: echelon of
    [[a | a], [b | 0]]; rows whose left half vanishes span the
    intersection in their right half."""
    if not a or not b:
        return []
    zero = [Q(0)] * n
    rows = [list(v) + list(v) for v in a] + [list(v) + zero for v in b]
    return [r[n:] for r in _echelon(rows) if all(x == 0 for x in r[:n])]


def matmul(a: list, b: list) -> list:
    cols = len(b[0])
    out = []
    for row in a:
        acc = [Q(0)] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def exp_nilpotent(x: list) -> list:
    """exp(X) for a nilpotent square matrix, as the finite series; raises
    if X is not nilpotent."""
    n = len(x)
    out = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    term = [row[:] for row in out]
    for k in range(1, n + 1):
        term = [[v / k for v in row] for row in matmul(term, x)]
        if all(v == 0 for row in term for v in row):
            return out
        out = [[a + b for a, b in zip(r, s)] for r, s in zip(out, term)]
    raise ValueError("matrix is not nilpotent")


class Realization:
    """The matrix realization of a catalog algebra, with exact
    coordinates of matrices in the algebra basis and adjoint actions of
    group elements."""

    def __init__(self, algebra):
        mats = [[[Q(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
                for m in algebra.realization]
        self.dim = len(mats)
        self.size = len(mats[0])
        self.mats = mats
        # a probe entry per basis matrix, where it alone is nonzero, so
        # coordinates read off directly; every extraction is verified
        self.probe = []
        for k, m in enumerate(mats):
            for i in range(self.size):
                for j in range(self.size):
                    if m[i][j] and all(not o[i][j] for o in mats if o is not m):
                        self.probe.append((i, j, m[i][j]))
                        break
                else:
                    continue
                break
            else:
                raise ValueError("basis matrix %d has no private entry" % k)

    def matrix(self, v) -> list:
        out = [[Q(0)] * self.size for _ in range(self.size)]
        for c, m in zip(v, self.mats):
            if c:
                for i, row in enumerate(m):
                    for j, x in enumerate(row):
                        if x:
                            out[i][j] += c * x
        return out

    def coords(self, m) -> list:
        v = [m[i][j] / x for i, j, x in self.probe]
        if self.matrix(v) != m:
            raise ValueError("matrix is not in the algebra")
        return v

    def adjoint(self, a: list, a_inv: list) -> list:
        """Columns of Ad(A): coordinates of A·b_k·A⁻¹ for each basis k."""
        return [self.coords(matmul(matmul(a, m), a_inv)) for m in self.mats]

    @staticmethod
    def apply(columns: list, v) -> list:
        out = [Q(0)] * len(columns)
        for c, col in zip(v, columns):
            if c:
                for k, x in enumerate(col):
                    if x:
                        out[k] += c * x
        return out


def conjugator(real: Realization, root_vectors, signs):
    """Inner automorphism Ad(exp X), X = Σ ±v over the given root vectors
    with the given signs.  Returns (Ad columns, X in algebra
    coordinates, X as a matrix)."""
    x = [Q(0)] * real.dim
    for v, c in zip(root_vectors, signs):
        x = [a + c * b for a, b in zip(x, v)]
    m = real.matrix(x)
    a = exp_nilpotent(m)
    a_inv = exp_nilpotent([[-e for e in row] for row in m])
    return real.adjoint(a, a_inv), x, m


class Weyl:
    """The Weyl group of a simple system as permutations of its roots,
    with shortlex-canonical words over the simple reflections taken in
    the order of ``simples``.

    An element is the tuple of images of the sorted roots.
    """

    def __init__(self, roots, simples, pairing):
        self.roots = sorted(roots)
        self.index = {r: i for i, r in enumerate(self.roots)}
        self.perms = []
        for a in simples:
            self.perms.append({
                b: tuple(y - pairing(b, a) * x for x, y in zip(a, b))
                for b in self.roots
            })
        ident = tuple(self.roots)
        self.identity = ident
        self.word = {ident: ()}
        queue = deque([ident])
        while queue:
            el = queue.popleft()
            for i in range(len(self.perms)):
                new = self.act(el, i)
                if new not in self.word:
                    self.word[new] = self.word[el] + (i,)
                    queue.append(new)
        self.elements = sorted(self.word, key=lambda e: (len(self.word[e]),
                                                        self.word[e]))

    def act(self, el, i):
        """s_i ∘ el."""
        p = self.perms[i]
        return tuple(p[r] for r in el)

    def apply(self, el, root):
        return el[self.index[root]]

    def inverse(self, el):
        out = [None] * len(el)
        for i, r in enumerate(el):
            out[self.index[r]] = self.roots[i]
        return tuple(out)

    def compose(self, e1, e2):
        """e1 ∘ e2."""
        return tuple(self.apply(e1, r) for r in e2)

    def distance(self, e1, e2) -> tuple:
        """Canonical word of the W-distance from chamber e1·C to e2·C."""
        return self.word[self.compose(self.inverse(e1), e2)]
