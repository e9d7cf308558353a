"""Structure-constant Lie algebras over the rationals.

Brackets, transporters, normalizers/centralizers, induced filtrations,
nilpotency tests, trace forms, terminating exponentials, and quotient
algebras.  An algebra may carry a faithful matrix realization; its
trace form then serves as the invariant form used for perps.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from math import factorial, gcd
from typing import Sequence

from .errors import DomainError, InternalCheckError
from .ratmat import (
    BilinearForm,
    Matrix,
    Q,
    Subspace,
    _frac_row,
    kernel,
    lincomb,
    rref,
    vec_is_zero,
    zero_vec,
)

__all__ = ["LieAlgebra", "Filtration", "minimal_polynomial"]


# ---------------------------------------------------------------------------
# polynomials over Q, coefficient lists low-to-high

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_monic(p):
    lead = p[-1]
    if lead == 1:
        return p
    return [c / lead for c in p]


def _poly_divmod(a, b):
    a = list(a)
    q = [Q(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        s = len(a) - len(b)
        q[s] = f
        for i, c in enumerate(b):
            a[s + i] -= f * c
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_exact_div(a, b, check):
    q, r = _poly_divmod(a, b)
    if r:
        raise InternalCheckError(check)
    return q


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_monic(a) if a else a


def _poly_lcm(a, b):
    if not a:
        return list(b)
    if not b:
        return list(a)
    q = _poly_exact_div(a, _poly_gcd(a, b), "polynomial lcm: gcd(a, b)"
                        " does not divide a")
    prod = [Q(0)] * (len(q) + len(b) - 1)
    for i, c in enumerate(q):
        if c:
            for j, d in enumerate(b):
                prod[i + j] += c * d
    return _poly_monic(_poly_trim(prod))


def poly_rational_roots(p):
    """All rational roots with multiplicity: list of (root, mult).

    Returns (roots, remainder_degree); remainder_degree > 0 means the
    polynomial does not split into rational linear factors.
    """
    p = _poly_monic(list(p))
    roots = []
    # clear denominators, then rational root theorem on the result
    while len(p) > 1:
        den = 1
        for c in p:
            den = den * c.denominator // gcd(den, c.denominator)
        ip = [int(c * den) for c in p]
        while ip and ip[0] == 0:
            # factor of t
            roots.append(Q(0))
            p = _poly_exact_div(p, [Q(0), Q(1)], "rational roots: t does"
                                " not divide p")
            ip = ip[1:]
        if len(p) <= 1:
            break
        found = None
        a0, an = abs(ip[0]), abs(ip[-1])
        for num in _divisors(a0):
            for den2 in _divisors(an):
                for s in (1, -1):
                    cand = Q(s * num, den2)
                    if _poly_eval(p, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return roots, len(p) - 1
        roots.append(found)
        p = _poly_exact_div(p, [-found, Q(1)], "rational roots: t - %s"
                            " does not divide p" % found)
    return roots, 0


def _poly_eval(p, x):
    v = Q(0)
    for c in reversed(p):
        v = v * x + c
    return v


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def minimal_polynomial(m: Matrix):
    """Monic minimal polynomial of m, by Krylov iteration per basis
    vector and lcm over vectors (low-to-high coefficient list)."""
    n = m.rows
    mp = [Q(1)]
    for j in range(n):
        v = tuple(Q(1) if i == j else Q(0) for i in range(n))
        ann = _vector_annihilator(m, v)
        mp = _poly_lcm(mp, ann)
        if len(mp) == n + 1:
            break
    return mp


def _vector_annihilator(m: Matrix, v):
    # echelon of Krylov vectors, each tagged with the poly producing it
    basis = []  # (reduced vec, poly, pivot)
    raw = v
    k = 0
    while True:
        w = list(raw)
        q = [Q(0)] * k + [Q(1)]  # t^k
        for bv, bp, piv in basis:
            f = w[piv]
            if f:
                w = [a - f * b for a, b in zip(w, bv)]
                for i, c in enumerate(bp):
                    q[i] -= f * c
        if vec_is_zero(w):
            return _poly_monic(_poly_trim(q))
        piv = next(i for i, x in enumerate(w) if x != 0)
        inv = 1 / w[piv]
        basis.append(
            ([x * inv for x in w], [c * inv for c in q] + [Q(0)], piv)
        )
        raw = m.mulvec(raw)
        k += 1


# ---------------------------------------------------------------------------


class Filtration:
    """Integer-indexed increasing chain of subspaces, constant outside
    [min_index, max_index]."""

    def __init__(self, levels: dict):
        self.levels = dict(levels)
        self.min_index = min(self.levels)
        self.max_index = max(self.levels)
        ks = sorted(self.levels)
        for a, b in zip(ks, ks[1:]):
            if b != a + 1:
                raise DomainError("filtration indices not contiguous")
            if not self.levels[b].contains(self.levels[a]):
                raise DomainError("filtration not monotone")
        self._adapted = None

    def level(self, k: int) -> Subspace:
        if k < self.min_index:
            k = self.min_index
        elif k > self.max_index:
            k = self.max_index
        return self.levels[k]

    def indices(self):
        return range(self.min_index, self.max_index + 1)

    def adapted_basis(self) -> dict:
        """{j: W_j}, built once: W_min = f^min and, for j > min, W_j the
        span of the residuals of f^j's basis modulo f^(j-1).  The
        residuals vanish on f^(j-1)'s pivot columns, so
        W_j ⊕ f^(j-1) = f^j, and the W_j together form a basis of
        f^max adapted to the filtration."""
        if self._adapted is None:
            lo = self.min_index
            self._adapted = {lo: self.levels[lo]}
            for j in range(lo + 1, self.max_index + 1):
                below = self.levels[j - 1]
                self._adapted[j] = Subspace.from_vectors(
                    below.ambient_dim,
                    [below.reduce(x) for x in self.levels[j].vectors()])
        return self._adapted


def _check_compatibility(g: LieAlgebra, f: Filtration):
    """Raise InternalCheckError, naming the first failing pair i ≤ j,
    unless [f^i, f^j] ⊆ f^(i+j) for all i, j in f.indices() (the target
    index clamped like ``level``).

    Only the pairs that can fail are tested; the others hold:

    - [f^i, f^j] = [f^j, f^i] as subspaces ([x, y] = -[y, x]) with the
      same target f^(j+i), so each unordered pair i ≤ j is tested once;
    - if f^i = 0 the bracket is 0, contained in any level (f^min_index
      is 0 for an induced filtration); f^j ⊇ f^i for j ≥ i, so a zero
      f^j has a zero f^i;
    - if the target level is all of g, it contains every bracket, and so
      does every target f^(i+j') ⊇ f^(i+j) with j' ≥ j.

    A tested pair brackets only its adapted pieces: it holds iff
    [W_i, W_j] ⊆ f^(i+j), with W the adapted basis.  Proof: take the
    pairs in the loop's order, i then j, and suppose every earlier pair
    holds (it was tested, or skipped as above).  f^i = W_i + f^(i-1) for
    i > min and f^min = W_min, likewise for j, so by bilinearity
    [f^i, f^j] ⊆ [W_i, W_j] + [f^(i-1), f^j] + [f^i, f^(j-1)], the last
    two terms present only when i > min, resp. j > min.  The pair
    (i-1, j) comes earlier and gives [f^(i-1), f^j] ⊆ f^(i+j-1); the
    pair (i, j-1), or (i-1, i) when j = i, comes earlier and gives
    [f^i, f^(j-1)] ⊆ f^(i+j-1).  Clamped targets are monotone, so
    f^(i+j-1) ⊆ f^(i+j).  Hence (i, j) holds iff [W_i, W_j] ⊆ f^(i+j),
    and conversely [W_i, W_j] ⊆ [f^i, f^j].  So the first failing pair
    named is that of the full pairwise predicate, not of a weaker
    certificate.  On the diagonal [u, v] = -[v, u] and [u, u] = 0, so
    only u before v in W_i is bracketed.  The W_j are independent, so
    Σ dim W_j ≤ dim g = n, and the whole check makes at most n(n-1)/2
    brackets, one per unordered pair of distinct adapted vectors.
    """
    adapted = f.adapted_basis()
    for i in f.indices():
        fi = f.level(i)
        if fi.dim == 0:
            continue
        wi = adapted[i].vectors()
        for j in range(i, f.max_index + 1):
            fj, target = f.level(j), f.level(i + j)
            if target.dim == g.dim:
                break
            pairs = (combinations(wi, 2) if j == i
                     else product(wi, adapted[j].vectors()))
            if not all(target.contains_vector(g.bracket(u, v))
                       for u, v in pairs):
                raise InternalCheckError(
                    "filtration compatibility fails at (i, j) = (%d, %d):"
                    " [f^i, f^j] not in f^(i+j); dim f^i = %d,"
                    " dim f^j = %d, dim f^(i+j) = %d"
                    % (i, j, fi.dim, fj.dim, target.dim)
                )


class LieAlgebra:
    """Lie algebra given by structure constants c[i][j] = coordinates
    of [b_i, b_j].

    ``realization`` is an optional faithful list of square matrices;
    ``form`` is the invariant symmetric form used for perps (defaults
    to the realization's trace form).
    """

    def __init__(self, structure, labels=None, realization=None, form=None,
                 validate=True):
        self.dim = len(structure)
        self.structure = tuple(
            tuple(_frac_row(vec) for vec in row) for row in structure
        )
        for row in self.structure:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise DomainError("structure tensor shape mismatch")
        self.labels = tuple(labels) if labels else tuple(
            "b%d" % i for i in range(self.dim)
        )
        self.realization = tuple(realization) if realization else None
        if self.realization is not None and len(self.realization) != self.dim:
            raise DomainError("realization size mismatch")
        self.trace_form = None
        if self.realization is not None:
            # tr(r_i r_j) = Σ_ab r_i[a][b] r_j[b][a]: one product of the
            # flattened matrices with the flattened transposes
            flat = Matrix([_flat(r) for r in self.realization])
            flat_t = Matrix([_flat(r.transpose()) for r in self.realization])
            self.trace_form = BilinearForm(flat * flat_t.transpose())
        self.form = form if form is not None else self.trace_form
        self._derived = None
        self._center = None
        self._sparse_cache = None
        if validate:
            self._validate()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_matrices(mats: Sequence[Matrix], labels=None) -> "LieAlgebra":
        """Build structure constants from commutators of a linearly
        independent family of matrices closed under commutator."""
        mats = list(mats)
        n = len(mats)
        sz = mats[0].rows
        # one elimination of [flat(mats) | I]: the left block is the
        # canonical basis of the span, the right block writes each of
        # its rows in terms of the mats
        aug = [_flat(m) + e for m, e in zip(mats, Matrix.identity(n).data)]
        red = rref(Matrix(aug)).data
        if any(not any(r[:sz * sz]) for r in red):
            raise DomainError("matrices not linearly independent")
        flat = Subspace(sz * sz, Matrix([r[:sz * sz] for r in red]))
        to_mats = Matrix([r[sz * sz:] for r in red]).transpose()
        comms = {}

        def coords(i, j):
            m = comms[i, j] = _flat(mats[i] * mats[j] - mats[j] * mats[i])
            cs = flat.coordinates_of(m)
            if cs is None:
                raise DomainError("family not closed under commutator")
            return to_mats.mulvec(cs)

        g = LieAlgebra(_antisymmetric_fill(n, coords), labels=labels,
                       realization=mats, validate=False)
        g._validate(comms)
        return g

    def _validate(self, commutators=None):
        """Antisymmetry, Jacobi and, with a realization, [r_i, r_j] =
        Σ_k c_ij^k r_k; ``commutators`` maps each i < j to the already
        formed _flat([r_i, r_j])."""
        c = self.structure
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                for a, b in zip(c[i][j], c[j][i]):
                    if (a or b) and a != -b:
                        raise DomainError(
                            "antisymmetry fails at (%d,%d)" % (i, j)
                        )
        sp = self._sparse
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    # [b_i,[b_j,b_k]] = [[b_i,b_j],b_k] + [b_j,[b_i,b_k]];
                    # with antisymmetry (checked above) this is the cyclic
                    # sum [b_i,c_jk] + [b_j,c_ki] + [b_k,c_ij] = 0
                    acc = {}
                    for x, pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                        for m, y in sp.get(pair, ()):
                            for l, z in sp.get((x, m), ()):
                                acc[l] = acc[l] + y * z if l in acc else y * z
                    if any(acc.values()):
                        raise DomainError(
                            "Jacobi fails at (%d,%d,%d)" % (i, j, k)
                        )
        if self.realization is not None:
            flats = [[(e, x) for e, x in enumerate(_flat(r)) if x]
                     for r in self.realization]
            for i in range(n):
                ri = self.realization[i]
                for j in range(i + 1, n):
                    rj = self.realization[j]
                    comm = (_flat(ri * rj - rj * ri) if commutators is None
                            else commutators[i, j])
                    want = {}
                    for k, x in sp.get((i, j), ()):
                        for e, y in flats[k]:
                            want[e] = want[e] + x * y if e in want else x * y
                    if any(v != want.get(e, 0) for e, v in enumerate(comm)):
                        raise DomainError(
                            "realization disagrees with structure at"
                            " (%d,%d)" % (i, j)
                        )

    # -- brackets ------------------------------------------------------------

    @property
    def _sparse(self):
        # structure tensor as {(i, j): [(k, c), ...]} over nonzeros;
        # the tensor is sparse for all catalog algebras, so bracketing
        # through it beats the dense loops by a wide margin
        if self._sparse_cache is None:
            sp = {}
            for i, row in enumerate(self.structure):
                for j, vec in enumerate(row):
                    ent = [(k, c) for k, c in enumerate(vec) if c]
                    if ent:
                        sp[(i, j)] = ent
            self._sparse_cache = sp
        return self._sparse_cache

    def _bracket_basis_vec(self, i, v):
        """[b_i, v] for a coordinate vector v."""
        out = [Q(0)] * self.dim
        sp = self._sparse
        for j, x in enumerate(v):
            if x:
                ent = sp.get((i, j))
                if ent:
                    for k, c in ent:
                        out[k] += x * c
        return tuple(out)

    def bracket(self, x, y):
        out = [Q(0)] * self.dim
        sp = self._sparse
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                ent = sp.get((i, j))
                if ent:
                    xy = xi * yj
                    for k, c in ent:
                        out[k] += xy * c
        return tuple(out)

    def ad(self, x) -> Matrix:
        """Matrix of ad(x): v ↦ [x, v] on coordinates."""
        cols = [self.bracket(x, _unit(self.dim, j)) for j in range(self.dim)]
        return Matrix(cols).transpose()

    def basis_element(self, i):
        return _unit(self.dim, i)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim)

    def bracket_spaces(self, s: Subspace, t: Subspace) -> Subspace:
        vecs = []
        for u in s.vectors():
            for v in t.vectors():
                vecs.append(self.bracket(u, v))
        return Subspace.from_vectors(self.dim, vecs)

    def is_subalgebra(self, s: Subspace) -> bool:
        return s.contains(self.bracket_spaces(s, s))

    # -- transporters --------------------------------------------------------

    def transporter(self, a: Subspace, b: Subspace) -> Subspace:
        """c_g(a,b) = {x : [x, a] ⊆ b}."""
        n = self.dim
        if a.dim == 0:
            return Subspace.full(n)
        # column i of the constraint system: [b_i, av] reduced mod b,
        # for every basis vector av of a
        cols = [
            tuple(chain.from_iterable(
                b.reduce(self._bracket_basis_vec(i, av)) for av in a.vectors()
            ))
            for i in range(n)
        ]
        return kernel(Matrix(cols).transpose())

    def normalizer(self, s: Subspace) -> Subspace:
        return self.transporter(s, s)

    def centralizer(self, s: Subspace) -> Subspace:
        return self.transporter(s, Subspace.zero(self.dim))

    def centralizer_element(self, x) -> Subspace:
        return kernel(self.ad(x))

    def center(self) -> Subspace:
        if self._center is None:
            self._center = self.centralizer(Subspace.full(self.dim))
        return self._center

    # -- derived series / nilpotency ----------------------------------------

    def derived_algebra(self) -> Subspace:
        if self._derived is None:
            vecs = []
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    vecs.append(self.structure[i][j])
            self._derived = Subspace.from_vectors(self.dim, vecs)
        return self._derived

    def lower_central_series(self, s: Subspace):
        if not self.is_subalgebra(s):
            raise DomainError("not a subalgebra")
        series = [s]
        while True:
            nxt = self.bracket_spaces(s, series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
            if nxt.dim == 0:
                break
        return series

    def is_nilpotent_subalgebra(self, s: Subspace) -> bool:
        return self.lower_central_series(s)[-1].dim == 0

    # -- filtrations ---------------------------------------------------------

    def induced_filtration(self, n: Subspace, p: Subspace) -> Filtration:
        """Filtration with f^(-1) = n, f^(0) = p, negative levels by
        bracketing with n, positive levels by transporting into the
        previous level."""
        if not self.is_subalgebra(n):
            raise DomainError("n not a subalgebra")
        if not self.is_subalgebra(p):
            raise DomainError("p not a subalgebra")
        if not p.contains(n):
            raise DomainError("n not contained in p")
        if not self.normalizer(n).contains(p):
            raise DomainError("p does not normalize n")
        levels = {-1: n, 0: p}
        cap = 2 * self.dim + 1
        k = -1
        while True:
            nxt = self.bracket_spaces(n, levels[k])
            if nxt == levels[k]:
                if nxt.dim != 0:
                    raise DomainError("negative levels do not stabilize at 0"
                                      " (n not nilpotent)")
                break
            levels[k - 1] = nxt
            k -= 1
            if len(levels) > cap:
                raise InternalCheckError("filtration failed to stabilize")
        k = 0
        while True:
            nxt = self.transporter(n, levels[k])
            if nxt == levels[k]:
                break
            levels[k + 1] = nxt
            k += 1
            if len(levels) > cap:
                raise InternalCheckError("filtration failed to stabilize")
        f = Filtration(levels)
        _check_compatibility(self, f)
        return f

    # -- nilpotent cone, exp ------------------------------------------------

    def in_nilpotent_cone(self, x) -> bool:
        if not self.derived_algebra().contains_vector(x):
            return False
        mp = minimal_polynomial(self.ad(x))
        return all(c == 0 for c in mp[:-1])

    def exp_ad(self, x) -> Matrix:
        mp = minimal_polynomial(self.ad(x))
        if any(c != 0 for c in mp[:-1]):
            raise DomainError("exp_ad requires an ad-nilpotent element")
        m = self.ad(x)
        out = Matrix.identity(self.dim)
        term = Matrix.identity(self.dim)
        for k in range(1, len(mp)):
            term = term * m
            out = out + term.scale(Q(1, factorial(k)))
        return out

    def check_automorphism(self, a: Matrix):
        """Raise unless a preserves the bracket and the form."""
        for i in range(self.dim):
            ai = a.col(i)
            for j in range(i + 1, self.dim):
                lhs = a.mulvec(self.structure[i][j])
                if lhs != self.bracket(ai, a.col(j)):
                    raise InternalCheckError("not an automorphism")
        if self.form is not None:
            g = self.form.gram
            if a.transpose() * g * a != g:
                raise InternalCheckError("automorphism does not fix the form")

    def apply_auto(self, a: Matrix, s: Subspace) -> Subspace:
        return Subspace.from_vectors(
            self.dim, [a.mulvec(v) for v in s.vectors()]
        )

    # -- forms ---------------------------------------------------------------

    def is_reductive(self):
        """True if the attached trace form is nondegenerate; None
        (inconclusive) if it is degenerate; raises without realization."""
        if self.trace_form is None:
            raise DomainError("no realization attached")
        if self.trace_form.is_nondegenerate():
            return True
        return None

    def perp(self, s: Subspace) -> Subspace:
        if self.form is None:
            raise DomainError("no invariant form available")
        return s.perp(self.form)

    # -- subalgebras and quotients -------------------------------------------

    def restrict(self, space: Subspace):
        """Structure constants of a subalgebra on its canonical basis.

        Returns (sub_algebra, to_sub, to_ambient) where to_sub maps
        ambient coordinate vectors of elements of the subalgebra to
        subalgebra coordinates and to_ambient is the inverse inclusion.
        """
        if not self.is_subalgebra(space):
            raise DomainError("not a subalgebra")
        basis = space.vectors()
        d = len(basis)

        def sub_coords(i, j):
            cs = space.coordinates_of(self.bracket(basis[i], basis[j]))
            if cs is None:
                raise InternalCheckError(
                    "restrict: bracket of basis vectors %d, %d leaves the"
                    " subalgebra" % (i, j))
            return cs

        structure = _antisymmetric_fill(d, sub_coords)
        form = None
        if self.form is not None:
            form = self.form.restrict(basis)
        sub = LieAlgebra(structure, form=form, validate=False)

        def to_sub(v):
            cs = space.coordinates_of(v)
            if cs is None:
                raise DomainError("vector not in subalgebra")
            return cs

        def to_ambient(c):
            return lincomb(c, basis, self.dim)

        return sub, to_sub, to_ambient

    def quotient_algebra(self, ideal: Subspace):
        """Quotient by a verified ideal.

        Returns (quotient, proj, section) with proj mapping coordinate
        vectors to quotient coordinates and section a list of ambient
        coordinate vectors representing the quotient basis.
        """
        if not ideal.contains(
            self.bracket_spaces(Subspace.full(self.dim), ideal)
        ):
            raise DomainError("not an ideal")
        pivset = set(ideal._pivots)
        comp = [k for k in range(self.dim) if k not in pivset]
        d = len(comp)

        def proj(v):
            w = ideal.reduce(v)
            return tuple(w[k] for k in comp)

        section = [_unit(self.dim, k) for k in comp]
        structure = _antisymmetric_fill(
            d, lambda i, j: proj(self.bracket(section[i], section[j])))
        quo = LieAlgebra(structure, validate=True)
        return quo, proj, section


def _unit(n, i):
    return tuple(Q(1) if k == i else Q(0) for k in range(n))


def _flat(m: Matrix) -> tuple:
    """Entries of m, row after row."""
    return tuple(x for r in m.data for x in r)


def _antisymmetric_fill(n, upper):
    """Structure tensor with c[i][j] = upper(i, j) for i < j (called in
    row order), zero diagonal and c[j][i] = -c[i][j]."""
    structure = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(tuple(-x if x else x for x in structure[j][i]))
            elif j == i:
                row.append(zero_vec(n))
            else:
                row.append(upper(i, j))
        structure.append(tuple(row))
    return structure
