"""Parabolic subalgebras of reductive Lie algebras.

Recognition with cross-checked certificates, nilradicals and induced
filtrations, Levi quotients, grading lifts and opposites, the pairwise
relations (costandard / weakly opposite / opposite), common Levis with
their commuting grading lifts, parabolic projection, and lowest-weight
lines in exterior powers of the adjoint representation.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Optional

from .errors import DomainError, InternalCheckError
from .liealg import Filtration, LieAlgebra
from .ratmat import (
    Matrix,
    Q,
    Subspace,
    kernel,
    lincomb,
    solve,
    vec_is_zero,
    vec_scale,
)

__all__ = [
    "ParabolicData",
    "LeviQuotient",
    "is_parabolic",
    "make_parabolic",
    "conjugate_parabolic",
    "grading_lift",
    "opposite",
    "is_costandard",
    "is_weakly_opposite",
    "is_opposite",
    "project",
    "common_levi",
    "lowest_weight_line",
]

# largest exterior-power dimension lowest_weight_line will build
EXT_BUDGET = 512


def _require_form(g: LieAlgebra):
    if g.form is None:
        raise DomainError("no invariant form available")
    if not g.form.is_nondegenerate():
        raise DomainError("invariant form is degenerate")


def is_parabolic(g: LieAlgebra, p: Subspace):
    """Recognize a parabolic subalgebra; returns (bool, certificate).

    The primary test is: p contains its perp and is self-normalizing.
    Three further characterizations are evaluated independently — via
    the nilpotency ideal p ∩ p^perp — and any disagreement among the
    four raises InternalCheckError, since they are provably equivalent
    for subalgebras of a reductive algebra with nondegenerate form.
    The certificate keeps c6's lower central series of p^perp, or None.
    """
    _require_form(g)
    if not g.is_subalgebra(p):
        raise DomainError("not a subalgebra")
    pp = g.perp(p)
    nil_ideal = p.intersect(pp)  # radical of the restricted form
    norm_p = g.normalizer(p)
    c4 = p.contains(pp) and norm_p == p
    c5 = g.normalizer(nil_ideal) == p
    series = None
    if (p.contains(pp) and pp == nil_ideal
            and pp.contains(g.bracket_spaces(p, pp))):
        # [pp, pp] ⊆ [p, pp] ⊆ pp: pp is a subalgebra
        series = g.lower_central_series(pp)
    c6 = series is not None and series[-1].dim == 0
    c7 = g.dim - p.dim == nil_ideal.dim
    cert = {
        "perp": pp,
        "normalizer": norm_p,
        "nil_ideal": nil_ideal,
        "lower_central_series": series,
        "conditions": (c4, c5, c6, c7),
    }
    if len({c4, c5, c6, c7}) != 1:
        raise InternalCheckError(
            "parabolic characterizations disagree: %s" % (cert["conditions"],)
        )
    return c4, cert


class LeviQuotient:
    """Levi quotient q/nil(q) with its projection map.

    The quotient algebra carries the form induced from the ambient
    one, which is well defined and nondegenerate because the radical
    of the restricted form is exactly the nilradical.
    """

    def __init__(self, parent: "ParabolicData"):
        g = parent.ambient
        sub, to_sub, _ = g.restrict(parent.space)
        ideal = Subspace.from_vectors(
            sub.dim, [to_sub(v) for v in parent.nilradical.vectors()]
        )
        quo, proj, section = sub.quotient_algebra(ideal)
        form = sub.form.restrict(section)
        if not form.is_nondegenerate():
            raise InternalCheckError("induced Levi form degenerate")
        self.algebra = LieAlgebra(quo.structure, form=form, validate=False)
        self._to_sub = to_sub
        self._proj = proj
        self.parent = parent

    def project_vector(self, v):
        """Ambient coordinates of an element of q ↦ quotient coords."""
        return self._proj(self._to_sub(v))

    def project_space(self, s: Subspace) -> Subspace:
        return Subspace.from_vectors(
            self.algebra.dim, [self.project_vector(v) for v in s.vectors()]
        )


class ParabolicData:
    """A recognized parabolic with its computed companions."""

    def __init__(self, ambient: LieAlgebra, space: Subspace, series):
        self.ambient = ambient
        self.space = space
        self.series = series  # lower central series of nil(p)
        self.nilradical = series[0]
        self._filtration: Optional[Filtration] = None
        self.grading_element: Optional[tuple] = None
        self._levi: Optional[LeviQuotient] = None

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicData)
            and self.ambient is other.ambient
            and self.space == other.space
        )

    def __hash__(self):
        return hash((id(self.ambient), self.space))

    def __repr__(self):
        return "ParabolicData(dim %d of %d)" % (
            self.space.dim, self.ambient.dim
        )

    @property
    def dim(self):
        return self.space.dim

    @property
    def filtration(self) -> Filtration:
        # computed lazily: consumers that only need the subspace and
        # nilradical (e.g. projection sampling) skip the level checks
        if self._filtration is None:
            self._filtration = self.ambient.induced_filtration(
                self.series, self.space)
        return self._filtration

    def levi_quotient(self) -> LeviQuotient:
        if self._levi is None:
            self._levi = LeviQuotient(self)
        return self._levi

    def has_levi(self, l: Subspace) -> bool:
        """Whether l is a vector-space complement of the nilradical in
        the parabolic."""
        return (l.sum(self.nilradical) == self.space
                and l.intersect(self.nilradical).dim == 0)


def make_parabolic(g: LieAlgebra, space: Subspace) -> ParabolicData:
    ok, cert = is_parabolic(g, space)
    if not ok:
        raise DomainError("subspace is not parabolic")
    return ParabolicData(g, space, cert["lower_central_series"])


def conjugate_parabolic(pd: ParabolicData, auto: Matrix) -> ParabolicData:
    """Image of a parabolic under an algebra automorphism."""
    g = pd.ambient
    return make_parabolic(g, g.apply_auto(auto, pd.space))


def grading_lift(pd: ParabolicData, constraint: Optional[Subspace] = None):
    """Solve for a grading element lift of the filtration.

    Finds ξ in ``constraint`` (default p) with [ξ, x] ≡ j·x mod f^(j-1)
    for every basis vector x of every level f^(j).  Returns (ξ, torsor)
    where the torsor is the solution space direction, checked to be
    (nil(p) + z(g)) ∩ constraint.  Proof, for any constraint C ⊆ p (as
    every caller passes): the homogeneous solutions are the η ∈ C with
    [η, f^j] ⊆ f^(j-1) for every j, that is gr(ad η) = 0, and the
    elements of p acting as 0 on gr g are nil(p) + z(g).
    """
    g = pd.ambient
    if constraint is None:
        constraint = pd.space
    cb = constraint.vectors()
    if not cb:
        raise DomainError("empty constraint space")
    # one block of g.dim equations per basis vector x of each level
    # f^(j): [c, x] ≡ j·x mod f^(j-1), as a system in the coefficients
    # of ξ on cb; column r holds the equations' entries for cb[r]
    filt = pd.filtration
    blocks = [(filt.level(j - 1), j, x) for j in filt.indices()
              for x in filt.level(j).vectors()]
    cols = [
        tuple(chain.from_iterable(
            below.reduce(g.bracket(c, x)) for below, _, x in blocks
        ))
        for c in cb
    ]
    rhs = tuple(chain.from_iterable(
        below.reduce(vec_scale(j, x)) for below, j, x in blocks
    ))
    res = solve(Matrix(cols).transpose(), rhs)
    if res is None:
        raise DomainError("no grading lift in the constraint space")
    t, ker = res
    xi = lincomb(t, cb, g.dim)
    torsor = Subspace.from_vectors(
        g.dim, [lincomb(kv, cb, g.dim) for kv in ker.vectors()]
    )
    expected = pd.nilradical.sum(g.center()).intersect(constraint)
    if torsor != expected:
        raise InternalCheckError(
            "grading-lift torsor is not (nil(p) + z(g)) ∩ constraint"
        )
    return xi, torsor


def opposite(pd: ParabolicData, xi=None) -> ParabolicData:
    """Opposite parabolic through a grading lift ξ: the span of the
    nonnegative ad(ξ)-eigenspaces (parabolics being nonpositive parts),
    the kernels of ad ξ − j at the filtration indices j."""
    g = pd.ambient
    if xi is None:
        xi, _ = grading_lift(pd)
    m = g.ad(xi)
    ident = Matrix.identity(g.dim)
    spaces = {j: kernel(m - ident.scale(j))
              for j in pd.filtration.indices()}
    if sum(es.dim for es in spaces.values()) != g.dim:
        raise DomainError("ξ is not a grading lift of this parabolic")
    op_space = Subspace.from_vectors(
        g.dim, [v for j, es in spaces.items() if j >= 0
                for v in es.vectors()])
    neg = Subspace.from_vectors(
        g.dim, [v for j, es in spaces.items() if j <= 0
                for v in es.vectors()])
    if neg != pd.space:
        raise DomainError("ξ is not a grading lift of this parabolic")
    op = make_parabolic(g, op_space)
    # defining relations of an opposite pair
    if pd.space.sum(op.nilradical) != g.full_space():
        raise InternalCheckError("opposite fails p + nil(op) = g")
    if pd.nilradical.intersect(op.space).dim != 0:
        raise InternalCheckError("opposite fails nil(p) ∩ op = 0")
    return op


def is_costandard(p: ParabolicData, q: ParabolicData) -> bool:
    _same_ambient(p, q)
    return q.space.contains(p.nilradical)


def is_weakly_opposite(p: ParabolicData, q: ParabolicData) -> bool:
    _same_ambient(p, q)
    return p.space.sum(q.space) == p.ambient.full_space()


def is_opposite(p: ParabolicData, q: ParabolicData) -> bool:
    _same_ambient(p, q)
    return (
        p.space.intersect(q.nilradical).dim == 0
        and p.nilradical.intersect(q.space).dim == 0
    )


def project(q: ParabolicData, p: ParabolicData):
    """Parabolic projection: r = p∩q + nil(q) in g, and its image in
    the Levi quotient of q.  Returns (r_in_g, r_in_q0)."""
    _same_ambient(p, q)
    g = p.ambient
    inter = p.space.intersect(q.space)
    r_space = inter.sum(q.nilradical)
    try:
        r = make_parabolic(g, r_space)
    except DomainError as e:
        raise InternalCheckError(
            "projection p∩q + nil(q) not parabolic: %s" % e
        )
    want_nil = p.nilradical.intersect(q.space).sum(q.nilradical)
    if r.nilradical != want_nil:
        raise InternalCheckError(
            "nil(r) differs from nil(p)∩q + nil(q)"
        )
    levi = q.levi_quotient()
    r0_space = levi.project_space(r_space)
    try:
        r0 = make_parabolic(levi.algebra, r0_space)
    except DomainError as e:
        raise InternalCheckError(
            "projected subalgebra not parabolic in the Levi quotient: %s" % e
        )
    return r, r0


def common_levi(p: ParabolicData, q: ParabolicData):
    """Common Levi of p and q with the grading lifts that define it:
    (l, ξ_p, ξ_q), for ξ_q a grading lift of q inside p ∩ q, ξ_p one of
    p inside p ∩ q ∩ c_g(ξ_q), and l = c_g(ξ_p) ∩ c_g(ξ_q).

    ξ_p ∈ l serves every caller that needs a grading lift of p in l:
    two such lifts differ by some n + z ∈ (nil(p) + z(g)) ∩ l (the
    torsor of grading_lift) with z ∈ z(g) ⊆ l, so n ∈ l ∩ nil(p) ⊆
    c_g(ξ_p) ∩ nil(p), which is 0 since ad ξ_p acts on each level
    f^j/f^(j−1) of nil(p) = f^(−1) as j ≤ −1.  So they differ by an
    element of z(g), where every root vanishes.

    When the inputs are minimal parabolics l must be a Levi complement
    of both nilradicals; callers that rely on it check it with
    ParabolicData.has_levi.  Assertion failures are surfaced as
    InternalCheckError, never patched.
    """
    _same_ambient(p, q)
    g = p.ambient
    inter = p.space.intersect(q.space)
    try:
        xi_q, _ = grading_lift(q, inter)
    except DomainError:
        raise InternalCheckError("no grading lift of q inside p ∩ q")
    c_q = g.centralizer_element(xi_q)
    try:
        xi_p, _ = grading_lift(p, inter.intersect(c_q))
    except DomainError:
        raise InternalCheckError(
            "no commuting grading lift of p inside p ∩ q"
        )
    if not vec_is_zero(g.bracket(xi_p, xi_q)):
        raise InternalCheckError("compatible lifts do not commute")
    l = g.centralizer_element(xi_p).intersect(c_q)
    if not inter.contains(l):
        raise InternalCheckError("common Levi not inside p ∩ q")
    if not g.is_subalgebra(l):
        raise InternalCheckError("common Levi not a subalgebra")
    return l, xi_p, xi_q


def _wedge_of(vectors, n):
    """Exterior product of coordinate vectors as a sparse dict
    {sorted index tuple: coefficient}."""
    cur = {(): Q(1)}
    for v in vectors:
        nxt = {}
        for tup, c in cur.items():
            for idx in range(n):
                x = v[idx]
                if not x or idx in tup:
                    continue
                pos = 0
                while pos < len(tup) and tup[pos] < idx:
                    pos += 1
                sign = -1 if (len(tup) - pos) % 2 else 1
                key = tup[:pos] + (idx,) + tup[pos:]
                val = nxt.get(key, Q(0)) + sign * c * x
                if val:
                    nxt[key] = val
                elif key in nxt:
                    del nxt[key]
        cur = nxt
    return cur


def _wedge_act(g: LieAlgebra, i, w):
    """Action of basis element b_i on a wedge dict (derivation rule)."""
    out = {}
    ci = g.structure[i]
    for tup, c in w.items():
        for pos, idx in enumerate(tup):
            u = ci[idx]  # [b_i, e_idx]
            for idx2, x in enumerate(u):
                if not x:
                    continue
                rest = tup[:pos] + tup[pos + 1:]
                if idx2 in rest:
                    continue
                p2 = 0
                while p2 < len(rest) and rest[p2] < idx2:
                    p2 += 1
                # sign: remove at pos, insert at p2
                sign = (-1) ** pos * (-1) ** p2
                key = rest[:p2] + (idx2,) + rest[p2:]
                val = out.get(key, Q(0)) + sign * c * x
                if val:
                    out[key] = val
                elif key in out:
                    del out[key]
    return out


def lowest_weight_line(q: ParabolicData):
    """Line Λ^d nil(q) in the d-th exterior power of the adjoint
    representation, with its stabilizer verified to equal q.

    Returns (module_dim, line_dict, stabilizer).
    """
    g = q.ambient
    d = q.nilradical.dim
    mod_dim = comb(g.dim, d)
    if mod_dim > EXT_BUDGET:
        raise DomainError(
            "exterior power dimension %d exceeds budget %d"
            % (mod_dim, EXT_BUDGET)
        )
    if d == 0:
        return 1, {(): Q(1)}, g.full_space()
    w = _wedge_of(q.nilradical.vectors(), g.dim)
    if not w:
        raise InternalCheckError("wedge of nilradical basis vanished")
    actions = [_wedge_act(g, i, w) for i in range(g.dim)]
    support = set(w)
    for a in actions:
        support.update(a)
    support = sorted(support)
    rows = []
    for key in support:
        row = [a.get(key, Q(0)) for a in actions]
        row.append(-w.get(key, Q(0)))
        rows.append(row)
    ker = kernel(Matrix(rows))
    stab = Subspace.from_vectors(
        g.dim, [kv[: g.dim] for kv in ker.vectors()]
    )
    if stab != q.space:
        raise InternalCheckError(
            "exterior-power stabilizer differs from the parabolic"
        )
    return mod_dim, w, stab


def _same_ambient(p: ParabolicData, q: ParabolicData):
    if p.ambient is not q.ambient:
        raise DomainError("parabolics from different ambient algebras")
