"""Restricted root systems of split Cartan subspaces.

Root space decompositions, coroots, simple systems with fundamental
coweights/weights, the subset ↔ parabolic bijection, root reflections
as exact inner automorphisms, Weyl words between chambers of one
apartment, the duality involution, and normalization of an arbitrary
parabolic into standard position (which makes types canonical).

Roots are represented by their value tuples on the canonical basis of
the Cartan subspace.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .liealg import LieAlgebra, minimal_polynomial, poly_rational_roots
from .parabolic import (
    ParabolicData,
    common_levi,
    grading_lift,
    make_parabolic,
    opposite,
)
from .ratmat import (
    Matrix,
    Q,
    Subspace,
    kernel,
    lincomb,
    solve,
    vec_is_zero,
    vec_scale,
    vec_sub,
)

__all__ = [
    "RootDatum",
    "SimpleSystem",
    "TypeMap",
    "root_decomposition",
    "simple_system",
    "parabolic_from_subset",
    "type_of",
    "root_reflection",
    "weyl_word",
    "duality_involution",
    "standardize_type",
    "type_of_any",
    "base_types",
    "levi_transport",
]


class RootDatum:
    """Split Cartan subspace with its restricted root system."""

    def __init__(self, ambient, cartan, levi, roots, root_spaces, coroots,
                 root_lattice_rank):
        self.ambient = ambient
        self.cartan = cartan
        self.levi = levi
        self.roots = tuple(roots)
        self.root_spaces = dict(root_spaces)
        self.coroots = dict(coroots)
        self.root_lattice_rank = root_lattice_rank

    def eval_root(self, alpha, h) -> Fraction:
        """Value of the functional alpha on an element h of the Cartan."""
        c = self.cartan.coordinates_of(h)
        if c is None:
            raise DomainError("element not in the Cartan subspace")
        return sum((a * b for a, b in zip(alpha, c)), Q(0))

    def pairing(self, beta, alpha) -> Fraction:
        """β(h_α) — the Cartan integer."""
        return self.eval_root(beta, self.coroots[alpha])

    def root_set_of(self, space: Subspace):
        """Roots whose root space lies in the given subspace; checks
        that the subspace is the sum of ml and those root spaces."""
        s = frozenset(
            a for a in self.roots if space.contains(self.root_spaces[a])
        )
        total = self.levi.dim + sum(self.root_spaces[a].dim for a in s)
        if total != space.dim or not space.contains(self.levi):
            raise DomainError(
                "subspace is not ml plus a set of root spaces"
            )
        return s

    def span_of(self, roots) -> Subspace:
        """ml plus the root spaces of the given roots."""
        vecs = list(self.levi.vectors())
        for a in roots:
            vecs.extend(self.root_spaces[a].vectors())
        return Subspace.from_vectors(self.ambient.dim, vecs)

    def regular_element(self):
        """Σ m^i·h_i over the Cartan basis h_i for the least m ≥ 1 on
        which no root vanishes (root values are coordinates on that
        basis, so α(h) = Σ α_i·m^i)."""
        d = self.cartan.dim
        m = 1
        while True:
            coeffs = [Q(m) ** i for i in range(d)]
            if all(sum(c * v for c, v in zip(coeffs, a)) != 0
                   for a in self.roots):
                return lincomb(coeffs, self.cartan.vectors(),
                               self.ambient.dim)
            m += 1
            if m > 10 * len(self.roots) + 10:
                raise InternalCheckError("no regular element found")

    def reflection(self, alpha) -> dict:
        """σ_α(β) = β − β(h_α)·α as a permutation of the roots."""
        perm = {}
        for beta in self.roots:
            k = self.pairing(beta, alpha)
            img = tuple(b - k * a for a, b in zip(alpha, beta))
            if img not in self.root_spaces:
                raise InternalCheckError("σ_α leaves the root system")
            perm[beta] = img
        return perm


def root_decomposition(g: LieAlgebra, a: Subspace) -> RootDatum:
    """Simultaneous ad-eigenspace decomposition for a split abelian
    subspace, with coroots and integrality established."""
    if g.bracket_spaces(a, a).dim != 0:
        raise DomainError("Cartan subspace not abelian")
    ident = Matrix.identity(g.dim)
    components = [(Subspace.full(g.dim), ())]
    for h in a.vectors():
        m = g.ad(h)
        mp = minimal_polynomial(m)
        roots_h, rem = poly_rational_roots(mp)
        if rem or len(set(roots_h)) != len(roots_h):
            raise DomainError(
                "Cartan subspace not split (ad not rationally"
                " diagonalizable)"
            )
        eigen = [(lam, kernel(m - ident.scale(lam)))
                 for lam in sorted(set(roots_h))]
        nxt = []
        for space, vals in components:
            found = 0
            for lam, ker in eigen:
                es = space.intersect(ker)
                if es.dim:
                    nxt.append((es, vals + (lam,)))
                    found += es.dim
            if found != space.dim:
                raise InternalCheckError("eigenspace refinement lost"
                                         " dimensions")
        components = nxt
    levi = None
    root_spaces = {}
    for space, vals in components:
        if all(v == 0 for v in vals):
            levi = space
        else:
            root_spaces[vals] = space
    if levi is None:
        levi = Subspace.zero(g.dim)
    if levi != g.centralizer(a):
        raise InternalCheckError("zero component differs from the"
                                 " centralizer of a")
    if levi.dim + sum(s.dim for s in root_spaces.values()) != g.dim:
        raise InternalCheckError("root space decomposition does not"
                                 " fill the algebra")
    roots = sorted(root_spaces)
    coroots = {}
    for alpha in roots:
        neg = tuple(-v for v in alpha)
        if neg not in root_spaces:
            raise InternalCheckError("root system not symmetric")
        br = g.bracket_spaces(root_spaces[alpha], root_spaces[neg])
        s = a.intersect(br)
        if s.dim != 1:
            raise InternalCheckError(
                "a ∩ [g_α, g_-α] not a line"
            )
        h = s.vectors()[0]
        val = sum(
            (x * y for x, y in zip(alpha, a.coordinates_of(h))), Q(0)
        )
        if val == 0:
            raise InternalCheckError("α vanishes on a ∩ [g_α, g_-α]")
        coroots[alpha] = vec_scale(Q(2) / val, h)
    rd = RootDatum(
        g, a, levi, roots, root_spaces, coroots,
        root_lattice_rank=a.intersect(g.derived_algebra()).dim,
    )
    for alpha in roots:
        if rd.eval_root(alpha, coroots[alpha]) != 2:
            raise InternalCheckError("coroot normalization failed")
        for beta in roots:
            if rd.pairing(beta, alpha).denominator != 1:
                raise InternalCheckError("Cartan integers not integral")
    return rd


class SimpleSystem:
    """A chamber (minimal parabolic ⊇ ml) with its level sets, simple
    roots, and fundamental coweights/weights."""

    def __init__(self, rd: RootDatum, chamber: ParabolicData, xi,
                 levels, simples, fundamental_coweights,
                 fundamental_weights):
        self.rd = rd
        self.chamber = chamber
        self.xi = xi
        self.levels = levels  # root -> integer level
        self.simples = tuple(simples)  # ordered Φ¹
        self.fundamental_coweights = fundamental_coweights
        self.fundamental_weights = fundamental_weights
        self._duality = None  # TypeMap, filled by duality_involution

    @property
    def rank(self):
        return len(self.simples)

    def positive_roots(self):
        return frozenset(a for a, j in self.levels.items() if j > 0)

    def negative_roots(self):
        return frozenset(a for a, j in self.levels.items() if j < 0)


def simple_system(rd: RootDatum, pb: ParabolicData) -> SimpleSystem:
    g = rd.ambient
    if not pb.space.contains(rd.levi):
        raise DomainError("chamber does not contain the minimal Levi")
    xi, torsor = grading_lift(pb, rd.cartan)
    if not g.center().contains(torsor):
        # root values are blind to the center, so only central
        # ambiguity is tolerable
        raise InternalCheckError("Cartan-valued lift not unique modulo"
                                 " the center")
    levels = {}
    for alpha in rd.roots:
        j = rd.eval_root(alpha, xi)
        if j.denominator != 1:
            raise InternalCheckError("non-integer root level")
        if j == 0:
            raise DomainError("chamber is not a minimal parabolic"
                              " (level-zero root present)")
        levels[alpha] = int(j)
    # parabolic = nonpositive part: sanity
    neg_dim = rd.levi.dim + sum(
        rd.root_spaces[a].dim for a, j in levels.items() if j < 0
    )
    if neg_dim != pb.dim:
        raise InternalCheckError("chamber is not the nonpositive part"
                                 " of its own grading")
    simples = sorted(a for a, j in levels.items() if j == 1)
    # every root must be an all-nonnegative or all-nonpositive integer
    # combination of Φ¹
    srows = Matrix([list(s) for s in simples]).transpose()
    for alpha in rd.roots:
        res = solve(srows, alpha)
        if res is None or res[1].dim != 0:
            raise InternalCheckError("Φ¹ is not a basis of the root"
                                     " lattice")
        coords = res[0]
        if any(c.denominator != 1 for c in coords):
            raise InternalCheckError("non-integral root coordinates")
        if not (all(c >= 0 for c in coords) or all(c <= 0 for c in coords)):
            raise InternalCheckError("root with mixed signs on Φ¹")
    # fundamental coweights inside a ∩ [g, g]
    lat = rd.cartan.intersect(g.derived_algebra())
    cw = {}
    for alpha in simples:
        rows = []
        rhs = []
        for beta in simples:
            rows.append([rd.eval_root(beta, v) for v in lat.vectors()])
            rhs.append(Q(1) if beta == alpha else Q(0))
        res = solve(Matrix(rows), rhs)
        if res is None or res[1].dim != 0:
            raise InternalCheckError("fundamental coweight not unique")
        cw[alpha] = lincomb(res[0], lat.vectors(), g.dim)
    # fundamental weights: λ^α(h_β) = δ, vanishing on z(g) ∩ a
    zg = g.center().intersect(rd.cartan)
    fw = {}
    for alpha in simples:
        rows = []
        rhs = []
        for beta in simples:
            rows.append(list(rd.cartan.coordinates_of(rd.coroots[beta])))
            rhs.append(Q(1) if beta == alpha else Q(0))
        for z in zg.vectors():
            rows.append(list(rd.cartan.coordinates_of(z)))
            rhs.append(Q(0))
        res = solve(Matrix(rows), rhs)
        if res is None or res[1].dim != 0:
            raise InternalCheckError("fundamental weight not unique")
        fw[alpha] = tuple(res[0])
    return SimpleSystem(rd, pb, xi, levels, simples, cw, fw)


def parabolic_from_subset(ss: SimpleSystem, J) -> ParabolicData:
    """q_J = ml ⊕ ⊕_{α(ξ_J) ≤ 0} g_α with ξ_J = Σ_{α∈J} ξ^α."""
    rd = ss.rd
    g = rd.ambient
    J = frozenset(J)
    if not J <= set(ss.simples):
        raise DomainError("J not a subset of the simple roots")
    xi = lincomb([1] * len(J), [ss.fundamental_coweights[a] for a in J],
                 g.dim)
    space = rd.span_of(a for a in rd.roots if rd.eval_root(a, xi) <= 0)
    pd = make_parabolic(g, space)
    pd.grading_element = xi
    return pd


def type_of(ss: SimpleSystem, q: ParabolicData):
    """Type of a parabolic containing the base chamber: the simples
    whose (positive) root space it misses."""
    if not q.space.contains(ss.chamber.space):
        raise DomainError("parabolic does not contain the base chamber")
    return frozenset(
        a for a in ss.simples if not q.space.contains(ss.rd.root_spaces[a])
    )


def root_reflection(rd: RootDatum, alpha):
    """The exact automorphism exp(ad x_α) exp(ad −y_α) exp(ad x_α) and
    the combinatorial permutation σ_α(β) = β − β(h_α)·α."""
    g = rd.ambient
    if alpha not in rd.root_spaces:
        raise DomainError("not a root")
    neg = tuple(-v for v in alpha)
    x = rd.root_spaces[alpha].vectors()[0]
    h = rd.coroots[alpha]
    # y in g_{-α} with [x, y] = h
    nb = rd.root_spaces[neg].vectors()
    res = solve(Matrix([g.bracket(x, b) for b in nb]).transpose(), h)
    if res is None:
        raise InternalCheckError("coroot equation unsolvable")
    y = lincomb(res[0], nb, g.dim)
    auto = g.exp_ad(x) * g.exp_ad(vec_scale(-1, y)) * g.exp_ad(x)
    # h ↦ h − α(h) h_α on the Cartan
    for hb in rd.cartan.vectors():
        want = vec_sub(auto.mulvec(hb),
                       lincomb((1, -rd.eval_root(alpha, hb)), (hb, h), g.dim))
        if not vec_is_zero(want):
            raise InternalCheckError("reflection wrong on the Cartan")
    perm = rd.reflection(alpha)
    if set(perm.values()) != set(rd.roots):
        raise InternalCheckError("σ_α not a permutation")
    # the automorphism must carry g_β onto g_{σβ}
    for beta in rd.roots:
        img = g.apply_auto(auto, rd.root_spaces[beta])
        if img != rd.root_spaces[perm[beta]]:
            raise InternalCheckError("reflection does not permute root"
                                     " spaces as σ_α")
    return auto, perm


def simple_permutations(ss: SimpleSystem):
    """σ_α as root permutations for each simple α (combinatorial only,
    no automorphism matrices)."""
    return [ss.rd.reflection(alpha) for alpha in ss.simples]


def _chamber_negatives(ss: SimpleSystem, pc: ParabolicData):
    rd = ss.rd
    neg = rd.root_set_of(pc.space)
    if len(neg) * 2 != len(rd.roots) or any(
        tuple(-v for v in a) in neg for a in neg
    ):
        raise DomainError("not a minimal parabolic containing ml")
    return neg


def weyl_word(ss: SimpleSystem, pc: ParabolicData):
    """Greedy word in simple reflections carrying the base chamber to
    pc, tracked combinatorially on root sets."""
    perms = simple_permutations(ss)
    base_neg = ss.negative_roots()
    target = _chamber_negatives(ss, pc)
    word = []
    cur = target
    cap = len(ss.rd.roots) // 2 + 1
    while cur != base_neg:
        step = None
        for i, alpha in enumerate(ss.simples):
            # α positive in base; if α lies in cur the chamber is on
            # the far side of that wall
            if alpha in cur:
                step = i
                break
        if step is None or len(word) > cap:
            raise InternalCheckError("greedy chamber walk failed")
        cur = frozenset(perms[step][a] for a in cur)
        word.append(step)
    word.reverse()
    # applying the word to the base chamber must reproduce pc's roots
    check = base_neg
    for i in word:
        check = frozenset(perms[i][a] for a in check)
    if check != target:
        raise InternalCheckError("Weyl word does not reach the target"
                                 " chamber")
    return word


def standardize_type(ss: SimpleSystem, space: Subspace):
    """Type of an arbitrary parabolic containing ml, by walking its
    root set into standard position with simple reflections."""
    rd = ss.rd
    perms = simple_permutations(ss)
    S = rd.root_set_of(space)
    negs = ss.negative_roots()
    cap = len(rd.roots) + 1
    for _ in range(cap):
        missing = None
        for i, alpha in enumerate(ss.simples):
            if tuple(-v for v in alpha) not in S:
                missing = i
                break
        if missing is None:
            break
        S = frozenset(perms[missing][a] for a in S)
    else:
        raise InternalCheckError("standardization walk failed")
    if not negs <= S:
        raise InternalCheckError("standardized root set not standard")
    return frozenset(a for a in ss.simples if a not in S)


def levi_transport(pb: ParabolicData, xi_from, xi_to) -> Matrix:
    """The unique element of exp(nil(pb)) carrying one grading lift of
    pb to another, as an automorphism matrix."""
    g = pb.ambient
    nil = pb.nilradical
    u = Matrix.identity(g.dim)
    cur = tuple(xi_from)
    depth = pb.filtration.max_index - pb.filtration.min_index + 2
    for _ in range(depth):
        r = vec_sub(xi_to, cur)
        if vec_is_zero(r):
            return u
        if not nil.contains_vector(r):
            raise InternalCheckError("lift difference not in nil(pb)")
        nb = nil.vectors()
        res = solve(Matrix([g.bracket(b, cur) for b in nb]).transpose(), r)
        if res is None:
            raise InternalCheckError("transport equation unsolvable")
        u = g.exp_ad(lincomb(res[0], nb, g.dim)) * u
        cur = u.mulvec(xi_from)
    raise InternalCheckError("Levi transport did not converge")


def _transport_to_ml(ss: SimpleSystem, l: Subspace):
    """Subspace ↦ its image under the u ∈ exp(nil(pb)) carrying l, a
    common Levi of some parabolic and the base chamber pb, onto ml;
    the identity when l is already ml."""
    g = ss.rd.ambient
    pb = ss.chamber
    if l.dim != ss.rd.levi.dim:
        raise InternalCheckError("common Levi has wrong dimension")
    if l.sum(pb.nilradical) != pb.space or \
            l.intersect(pb.nilradical).dim != 0:
        raise InternalCheckError("common Levi not a complement in the"
                                 " base chamber")
    if l == ss.rd.levi:
        return lambda space: space
    xi_from, _ = grading_lift(pb, l)
    xi_to, _ = grading_lift(pb, ss.rd.levi)
    # the two lifts may differ by a central element (z(g) sits in both
    # Levis); only the nil(pb)-direction needs transporting
    zb = g.center().vectors()
    if zb:
        nb = pb.nilradical.vectors()
        d = vec_sub(xi_to, xi_from)
        res = solve(Matrix(nb + zb).transpose(), d)
        if res is None:
            raise InternalCheckError("lift difference outside"
                                     " nil(pb) + z(g)")
        xi_to = vec_sub(xi_to, lincomb(res[0][len(nb):], zb, g.dim))
    u = levi_transport(pb, xi_from, xi_to)
    return lambda space: g.apply_auto(u, space)


def type_of_any(ss: SimpleSystem, p: ParabolicData):
    """Type of an arbitrary parabolic relative to the base simple
    system: transport a common Levi with the base chamber onto ml by
    a unipotent automorphism, then standardize combinatorially.  The
    transport is inner, so the result is the adjoint-orbit type."""
    move = _transport_to_ml(ss, common_levi(p, ss.chamber))
    return standardize_type(ss, move(p.space))


def base_types(ss: SimpleSystem, base_ss: SimpleSystem) -> dict:
    """{α: the base type of q^α} for each simple α of ss: the
    adjoint-orbit type, relative to base_ss, of the maximal parabolic
    that α alone crosses.

    One transport serves every α.  Let l be the common Levi of
    ss.chamber and the base chamber, and u the inner automorphism with
    u·l = ml.  Each q^α contains ss.chamber, which contains l, so
    u·q^α ⊇ u·l = ml; and u is inner, so u·q^α has the adjoint-orbit
    type of q^α, which standardize_type reads off its root set.  So
    the answer is type_of_any(base_ss, q^α), without the common Levi of
    q^α, its two grading lifts and the filtration of q^α per α.
    """
    move = _transport_to_ml(base_ss,
                            common_levi(ss.chamber, base_ss.chamber))
    out = {}
    for alpha in ss.simples:
        q = parabolic_from_subset(ss, {alpha})
        t = standardize_type(base_ss, move(q.space))
        if len(t) != 1:
            raise InternalCheckError("maximal parabolic with non-"
                                     "singleton type")
        (out[alpha],) = t
    return out


class TypeMap:
    """A map between type index sets (realizes ι_q, ν_q, op)."""

    def __init__(self, mapping: dict, source=None, target=None):
        self.mapping = dict(mapping)
        self.source = frozenset(source if source is not None
                                else self.mapping)
        self.target = frozenset(target if target is not None
                                else self.mapping.values())
        if len(set(self.mapping.values())) != len(self.mapping):
            raise InternalCheckError("type map not injective")

    def __call__(self, t):
        return self.mapping[t]

    def image(self, ts):
        return frozenset(self.mapping[t] for t in ts)

    def is_involution(self):
        return all(
            self.mapping.get(v) == k for k, v in self.mapping.items()
        )


def duality_involution(ss: SimpleSystem) -> TypeMap:
    """op: for each simple α, the type of the opposite of the maximal
    parabolic q^α, normalized back into the standard chamber.
    Computed once per simple system."""
    if ss._duality is not None:
        return ss._duality
    mapping = {}
    for alpha in ss.simples:
        q = parabolic_from_subset(ss, {alpha})
        hat = opposite(q, q.grading_element)
        t = standardize_type(ss, hat.space)
        if len(t) != 1:
            raise InternalCheckError("opposite of a maximal parabolic"
                                     " not maximal")
        mapping[alpha] = next(iter(t))
    tm = TypeMap(mapping)
    if not tm.is_involution():
        raise InternalCheckError("duality map not an involution")
    ss._duality = tm
    return tm
