"""Concrete algebras (gl_n, sl_n, so(p,q)) with matrix realizations,
standard Cartans and minimal Levis, flag <-> parabolic dictionaries,
and the small combinatorial incidence models.

so(p,q) uses a basis adapted to q hyperbolic planes plus a definite
complement so that the standard Cartan is split over the rationals:
the defining space has ordered basis u_1, v_1, ..., u_q, v_q,
w_1, ..., w_{p-q} with pairings <u_i, v_i> = 1 and <w_j, w_j> = 1.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import chain, combinations

from .errors import DomainError, InternalCheckError
from .liealg import LieAlgebra, _flat
from .parabolic import ParabolicData, make_parabolic
from .ratmat import Matrix, Subspace, kernel, lincomb, solve

# building and rootdata are imported by the functions that use them, so
# a process that only builds an algebra or checks a subspace never loads
# (nor, without bytecode caches, compiles) them

__all__ = [
    "gl",
    "sl",
    "so",
    "CatalogEntry",
    "entry",
    "realization_size",
    "FlagSpec",
    "flag_stabilizer",
    "isotropic_flag_stabilizer",
    "flag_from_parabolic",
    "frame_levi",
    "standard_minimal_levi",
    "standard_borel",
    "standard_simple_system",
    "standard_parabolic",
    "all_standard_parabolics",
    "element_from_matrix",
    "incidence_model_subsets",
    "incidence_model_admissible",
]


class CatalogEntry:
    """What the catalog knows about one of its algebras: the family,
    the defining form, a split Cartan and the standard flag.  The
    standard minimal Levi and simple system are derived from these
    once, on first use."""

    def __init__(self, kind: tuple, form, cartan: list, flag: list):
        self.kind = kind  # ("gl", n), ("sl", n) or ("so", p, q)
        self.form = form  # Gram matrix of the defining form; so(p,q) only
        self.cartan = cartan  # realization matrices of the split Cartan
        self.flag = flag  # standard (isotropic) coordinate flag members
        self.minimal_levi = None  # (levi, RootDatum)
        self.simple_system = None


_ENTRIES = {}


def entry(g: LieAlgebra) -> CatalogEntry:
    try:
        return _ENTRIES[g]
    except KeyError:
        raise DomainError("not a catalog algebra") from None


def _register(mats, labels, kind, cartan, flag, form=None) -> LieAlgebra:
    g = LieAlgebra.from_matrices(mats, labels=labels)
    _ENTRIES[g] = CatalogEntry(kind, form, cartan, flag)
    return g


def _eij(n, i, j):
    rows = [[Q(0)] * n for _ in range(n)]
    rows[i][j] = Q(1)
    return Matrix(rows)


def _coordinate_flag(n, axes):
    """Spans of the first 1, 2, ... of the given coordinate axes."""
    units = [[Q(int(i == a)) for i in range(n)] for a in axes]
    return [Subspace.from_vectors(n, units[:d])
            for d in range(1, len(units) + 1)]


@lru_cache(maxsize=None)
def gl(n: int) -> LieAlgebra:
    if n < 1:
        raise DomainError("n must be >= 1")
    mats, labels = [], []
    for i in range(n):
        for j in range(n):
            mats.append(_eij(n, i, j))
            labels.append("E[%d,%d]" % (i + 1, j + 1))
    return _register(mats, labels, ("gl", n),
                     [_eij(n, i, i) for i in range(n)],
                     _coordinate_flag(n, range(n - 1)))


@lru_cache(maxsize=None)
def sl(n: int) -> LieAlgebra:
    if n < 2:
        raise DomainError("n must be >= 2")
    mats, labels = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                mats.append(_eij(n, i, j))
                labels.append("E[%d,%d]" % (i + 1, j + 1))
    cartan = [_eij(n, i, i) - _eij(n, i + 1, i + 1) for i in range(n - 1)]
    mats.extend(cartan)
    labels.extend("H[%d]" % (i + 1) for i in range(n - 1))
    return _register(mats, labels, ("sl", n), cartan,
                     _coordinate_flag(n, range(n - 1)))


def _so_gram(p: int, q: int) -> Matrix:
    sz = p + q
    rows = [[Q(0)] * sz for _ in range(sz)]
    for i in range(q):
        rows[2 * i][2 * i + 1] = Q(1)
        rows[2 * i + 1][2 * i] = Q(1)
    for j in range(2 * q, sz):
        rows[j][j] = Q(1)
    return Matrix(rows)


@lru_cache(maxsize=None)
def so(p: int, q: int) -> LieAlgebra:
    if not (p >= q >= 1):
        raise DomainError("need p >= q >= 1")
    sz = p + q
    s = _so_gram(p, q)
    mats, labels = [], []
    for i in range(sz):
        for j in range(i + 1, sz):
            mats.append(s * (_eij(sz, i, j) - _eij(sz, j, i)))
            labels.append("X[%d,%d]" % (i + 1, j + 1))
    _check_form_skew(mats, s)
    # h_i scales u_i by 1 and v_i by -1; the u_i span the isotropic flag
    cartan = [_eij(sz, 2 * i, 2 * i) - _eij(sz, 2 * i + 1, 2 * i + 1)
              for i in range(q)]
    return _register(mats, labels, ("so", p, q), cartan,
                     _coordinate_flag(sz, range(0, 2 * q, 2)), form=s)


def _check_form_skew(mats, s: Matrix):
    """m^T s + s m = 0 for every basis matrix m."""
    for k, m in enumerate(mats):
        if not (m.transpose() * s + s * m).is_zero():
            raise InternalCheckError("so(p,q) basis matrix %d not skew for"
                                     " the form" % k)


def realization_size(g: LieAlgebra) -> int:
    """Dimension of the defining space the realization acts on."""
    if g.realization is None:
        raise DomainError("algebra has no realization")
    return g.realization[0].rows


def element_from_matrix(g: LieAlgebra, m: Matrix):
    """Coordinates of a realization matrix in the algebra basis."""
    sz = realization_size(g)
    if (m.rows, m.cols) != (sz, sz):
        raise DomainError("matrix is %d×%d, the realization %d×%d"
                          % (m.rows, m.cols, sz, sz))
    res = solve(Matrix([_flat(r) for r in g.realization]).transpose(),
                _flat(m))
    if res is None:
        raise DomainError("matrix not in the algebra")
    return res[0]


# ---------------------------------------------------------------------------
# flags


class FlagSpec:
    """Strictly increasing chain of proper nonzero subspaces of the
    defining space; with a form attached, each member must be
    isotropic."""

    def __init__(self, ambient_dim: int, chain, form: Matrix = None):
        self.ambient_dim = ambient_dim
        self.chain = tuple(chain)
        self.form = form
        for w in self.chain:
            if w.ambient_dim != ambient_dim:
                raise DomainError("flag member in wrong space")
            if w.dim == 0 or w.dim == ambient_dim:
                raise DomainError("flag members must be proper and"
                                  " nonzero")
        for a, b in zip(self.chain, self.chain[1:]):
            if not (b.contains(a) and b.dim > a.dim):
                raise DomainError("chain not strictly increasing")
        if form is not None:
            for w in self.chain:
                if not (w.basis * form * w.basis.transpose()).is_zero():
                    raise DomainError("flag member not isotropic")

    def __eq__(self, other):
        return (isinstance(other, FlagSpec)
                and self.ambient_dim == other.ambient_dim
                and self.chain == other.chain)

    def __repr__(self):
        return "FlagSpec(dims=%s)" % ([w.dim for w in self.chain],)


def _action_stabilizer(g: LieAlgebra, members) -> Subspace:
    """{x in g : x . W subseteq W for all members W}, acting through
    the realization."""
    realization_size(g)  # a DomainError without one
    # column j of the constraint system: r_j·v reduced mod W, for every
    # basis vector v of every member W
    cols = [
        tuple(chain.from_iterable(
            w.reduce(r.mulvec(v)) for w in members for v in w.vectors()
        ))
        for r in g.realization
    ]
    return kernel(Matrix(cols).transpose())


def flag_stabilizer(g: LieAlgebra, f: FlagSpec) -> ParabolicData:
    if f.ambient_dim != realization_size(g):
        raise DomainError("flag in the wrong defining space")
    return make_parabolic(g, _action_stabilizer(g, f.chain))


def isotropic_flag_stabilizer(g: LieAlgebra, f: FlagSpec) -> ParabolicData:
    form = entry(g).form
    if form is None:
        raise DomainError("algebra carries no defining form")
    if f.form is None:
        f = FlagSpec(f.ambient_dim, f.chain, form=form)
    return flag_stabilizer(g, f)


def frame_levi(g: LieAlgebra, lines) -> Subspace:
    """Simultaneous stabilizer of the lines of a frame: the minimal
    Levi of the apartment the frame spans."""
    return _action_stabilizer(g, lines)


def flag_from_parabolic(p: ParabolicData) -> FlagSpec:
    """Chain of iterated nilradical images of the defining space,
    reversed; orthogonal case keeps the isotropic members.  The
    round-trip through flag_stabilizer is the correctness criterion.
    """
    g = p.ambient
    form = entry(g).form
    sz = realization_size(g)
    flats = [_flat(r) for r in g.realization]
    nil_mats = []
    for v in p.nilradical.vectors():
        m = lincomb(v, flats, sz * sz)
        nil_mats.append(Matrix(m[i:i + sz] for i in range(0, sz * sz, sz)))
    chain = []
    cur = Subspace.full(sz)
    while cur.dim > 0:
        vecs = []
        for m in nil_mats:
            for w in cur.vectors():
                vecs.append(m.mulvec(w))
        nxt = Subspace.from_vectors(sz, vecs)
        if nxt.dim >= cur.dim:
            raise InternalCheckError("nilradical image chain does not"
                                     " descend")
        chain.append(nxt)
        cur = nxt
    members = [w for w in reversed(chain) if 0 < w.dim < sz]
    if form is not None:
        kept = []
        for w in members:
            try:
                FlagSpec(sz, [w], form=form)
            except DomainError:
                continue
            kept.append(w)
        members = kept
    f = FlagSpec(sz, members, form=form)
    back = flag_stabilizer(g, f)
    if back.space != p.space:
        raise InternalCheckError("flag round-trip failed")
    return f


# ---------------------------------------------------------------------------
# standard Cartans, Levis, Borels


def standard_minimal_levi(g: LieAlgebra):
    """(minimal Levi subspace, RootDatum on the split part).  The Cartan
    is diagonal in the realization, and h acts on E_ij ∈ gl(V) ⊇ g by
    d_i − d_j, d its diagonal: those differences are the candidates."""
    from .rootdata import root_decomposition

    e = entry(g)
    if e.minimal_levi is None:
        a = Subspace.from_vectors(
            g.dim, [element_from_matrix(g, h) for h in e.cartan])
        sz = realization_size(g)
        diagonals = [[sum(c * r[i, i] for c, r in zip(h, g.realization))
                      for i in range(sz)] for h in a.vectors()]
        rd = root_decomposition(g, a, {
            tuple(d[i] - d[j] for d in diagonals)
            for i in range(sz) for j in range(sz)})
        e.minimal_levi = (rd.levi, rd)
    return e.minimal_levi


def standard_borel(g: LieAlgebra) -> ParabolicData:
    """Stabilizer of the standard (isotropic, in the orthogonal case)
    full coordinate flag; the standard minimal parabolic."""
    e = entry(g)
    return flag_stabilizer(
        g, FlagSpec(realization_size(g), e.flag, form=e.form))


def standard_simple_system(g: LieAlgebra):
    """The SimpleSystem of the standard Borel over the standard minimal
    Levi, built once per algebra."""
    from .rootdata import simple_system

    e = entry(g)
    if e.simple_system is None:
        _, rd = standard_minimal_levi(g)
        e.simple_system = simple_system(rd, standard_borel(g))
    return e.simple_system


def standard_parabolic(g: LieAlgebra, J) -> ParabolicData:
    from .rootdata import parabolic_from_subset

    return parabolic_from_subset(standard_simple_system(g), J)


def all_standard_parabolics(g: LieAlgebra):
    """All 2^rank standard parabolics over the standard Borel, keyed
    by type subset."""
    from .rootdata import parabolic_from_subset

    ss = standard_simple_system(g)
    out = {}
    for r in range(len(ss.simples) + 1):
        for J in combinations(ss.simples, r):
            out[frozenset(J)] = parabolic_from_subset(ss, J)
    return out


# ---------------------------------------------------------------------------
# combinatorial incidence models


def incidence_model_subsets(n: int):
    """Proper nonempty subsets of an (n+1)-set, typed by cardinality,
    incident iff comparable under containment: an IncidenceSystem."""
    from .building import IncidenceSystem

    if n < 1:
        raise DomainError("n must be >= 1")
    base = range(1, n + 2)
    els = []
    for r in range(1, n + 1):
        els.extend(frozenset(c) for c in combinations(base, r))
    types = {e: len(e) for e in els}
    edges = [
        (u, v) for u, v in combinations(els, 2)
        if len(u) != len(v) and (u < v or v < u)
    ]
    return IncidenceSystem(types, edges)


def incidence_model_admissible(n: int):
    """Nonempty admissible signed subsets of {±1..±n} (no index with
    both signs), typed by cardinality, incident iff comparable: an
    IncidenceSystem."""
    from .building import IncidenceSystem

    if n < 1:
        raise DomainError("n must be >= 1")
    els = []
    for r in range(1, n + 1):
        for idx in combinations(range(1, n + 1), r):
            for signs in range(1 << r):
                els.append(frozenset(
                    i if not (signs >> k) & 1 else -i
                    for k, i in enumerate(idx)
                ))
    types = {e: len(e) for e in els}
    edges = [
        (u, v) for u, v in combinations(els, 2)
        if len(u) != len(v) and (u < v or v < u)
    ]
    return IncidenceSystem(types, edges)
