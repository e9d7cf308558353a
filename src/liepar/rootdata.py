"""Restricted root systems of split Cartan subspaces.

Root space decompositions at candidate roots the caller knows (one
kernel each, no eigenvalue search), coroots, simple systems with
fundamental coweights/weights, the subset ↔ parabolic bijection, root
reflections as exact inner automorphisms, Weyl words, the duality
involution, and normalization of an arbitrary parabolic into standard
position (which makes types canonical).  Types and W-distances are read
off grading elements moved into ml (levi_transport), in the base
apartment (apartment_word).  Weyl words and standard positions both
come from one descent by simple reflections (_descend).  A center's
Levi quotient is read there too (quotient_simple_system): its roots
are base roots through the same move, and the descent of the center's
chamber labels its simples by base types, on split and non-split
forms alike.

Roots are represented by their value tuples on the canonical basis of
the Cartan subspace.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .liealg import LieAlgebra
from .parabolic import (
    ParabolicData,
    common_levi,
    grading_lift,
    make_parabolic,
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
    "root_decomposition",
    "simple_system",
    "parabolic_from_subset",
    "type_of",
    "root_reflection",
    "weyl_word",
    "apartment_word",
    "duality_involution",
    "standardize_type",
    "type_of_any",
    "quotient_simple_system",
    "levi_transport",
]


class RootDatum:
    """Split Cartan subspace with its restricted root system."""

    def __init__(self, ambient, cartan, levi, roots, root_spaces, coroots):
        self.ambient = ambient
        self.cartan = cartan
        self.levi = levi
        self.roots = tuple(roots)
        self.root_spaces = dict(root_spaces)
        self.coroots = dict(coroots)

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

    def nonpositive_parabolic(self, xi) -> ParabolicData:
        """ml plus the root spaces of the roots α with α(ξ) ≤ 0,
        recognized as a parabolic."""
        return make_parabolic(self.ambient, self.span_of(
            a for a in self.roots if self.eval_root(a, xi) <= 0))

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
        h = self.cartan.coordinates_of(self.coroots[alpha])
        perm = {}
        for beta in self.roots:
            k = sum((b * c for b, c in zip(beta, h)), Q(0))
            img = tuple(b - k * a for a, b in zip(alpha, beta))
            if img not in self.root_spaces:
                raise InternalCheckError("σ_α leaves the root system")
            perm[beta] = img
        return perm


def root_decomposition(g: LieAlgebra, a: Subspace, candidates) -> RootDatum:
    """Root space decomposition of g under a split abelian subspace a,
    with coroots and integrality established.

    ``candidates`` are value tuples on a's canonical basis that include
    every root; 0 is added here.  The joint eigenspace of a character β
    is one kernel: that of ad h_k − β_k stacked over the basis h_k of a.
    Eigenspaces of distinct characters are independent, so the kernels
    fill g iff no root is missing from the candidates; the fill check
    certifies the list, and a short one is an InternalCheckError."""
    if g.bracket_spaces(a, a).dim != 0:
        raise DomainError("Cartan subspace not abelian")
    ads = [g.ad(h).data for h in a.vectors()]
    zero = (Q(0),) * a.dim
    root_spaces = {}
    for beta in {tuple(map(Q, c)) for c in candidates} | {zero}:
        es = kernel(Matrix([r[:i] + (r[i] - b,) + r[i + 1:]
                            for m, b in zip(ads, beta)
                            for i, r in enumerate(m)]))
        if es.dim:
            root_spaces[beta] = es
    levi = root_spaces.pop(zero, Subspace.zero(g.dim))
    if levi != g.centralizer(a):
        raise InternalCheckError("zero component differs from the"
                                 " centralizer of a")
    if levi.dim + sum(s.dim for s in root_spaces.values()) != g.dim:
        raise InternalCheckError("root space decomposition does not"
                                 " fill the algebra: a root is missing"
                                 " from the candidates")
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
    rd = RootDatum(g, a, levi, roots, root_spaces, coroots)
    for alpha in roots:
        if rd.eval_root(alpha, coroots[alpha]) != 2:
            raise InternalCheckError("coroot normalization failed")
        for beta in roots:
            if rd.pairing(beta, alpha).denominator != 1:
                raise InternalCheckError("Cartan integers not integral")
    return rd


class SimpleSystem:
    """A chamber (minimal parabolic ⊇ ml) with its level sets, simple
    roots, their reflections σ_α as root permutations (in simples
    order), and fundamental coweights/weights."""

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
        self.reflections = tuple(rd.reflection(a) for a in self.simples)
        self._duality = None  # dict, filled by duality_involution

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
    J = frozenset(J)
    if not J <= set(ss.simples):
        raise DomainError("J not a subset of the simple roots")
    xi = lincomb([1] * len(J), [ss.fundamental_coweights[a] for a in J],
                 ss.rd.ambient.dim)
    pd = ss.rd.nonpositive_parabolic(xi)
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


def _chamber_negatives(ss: SimpleSystem, pc: ParabolicData):
    rd = ss.rd
    neg = rd.root_set_of(pc.space)
    if len(neg) * 2 != len(rd.roots) or any(
        tuple(-v for v in a) in neg for a in neg
    ):
        raise DomainError("not a minimal parabolic containing ml")
    return neg


def _descend(ss: SimpleSystem, S):
    """While some simple α has −α ∉ S, apply the first such σ_α to the
    root set S.  Returns the indices applied, in order, and the final
    set, which contains every −α.

    The walk ends within |Φ⁺| steps when S is the root set of a
    parabolic containing ml, since then α ∈ S or −α ∈ S for each root
    α.  A step applies σ_α with −α ∉ S, so α ∈ S.  σ_α sends α to −α
    and permutes Φ⁺ ∖ {α}, so the step removes α from S ∩ Φ⁺ and
    permutes the rest of it: |S ∩ Φ⁺| drops by one.  A longer walk
    means S was no such set, and raises."""
    negs = [tuple(-v for v in a) for a in ss.simples]
    cap = len(ss.rd.roots) // 2
    word = []
    while True:
        i = next((i for i, n in enumerate(negs) if n not in S), None)
        if i is None:
            return word, S
        if len(word) == cap:
            raise InternalCheckError("simple-reflection walk longer than"
                                     " |Φ⁺|")
        S = frozenset(ss.reflections[i][a] for a in S)
        word.append(i)


def weyl_word(ss: SimpleSystem, pc: ParabolicData):
    """Word in simple reflections carrying the base chamber to pc: the
    descent of pc's root set, reversed.  On a chamber −α ∉ S ⇔ α ∈ S,
    so each step crosses a wall that separates it from the base."""
    base_neg = ss.negative_roots()
    target = _chamber_negatives(ss, pc)
    word, cur = _descend(ss, target)
    if cur != base_neg:
        raise InternalCheckError("greedy chamber walk failed")
    word.reverse()
    # applying the word to the base chamber must reproduce pc's roots
    check = base_neg
    for i in word:
        check = frozenset(ss.reflections[i][a] for a in check)
    if check != target:
        raise InternalCheckError("Weyl word does not reach the target"
                                 " chamber")
    return word


def apartment_word(ss: SimpleSystem, pb: ParabolicData, lb: Subspace,
                   xi_b, xi_c):
    """A word for w_b⁻¹w_c, in positions of ss.simples, where u·pb =
    w_b·C₀ and u·pc = w_c·C₀ for an inner u, C₀ the base chamber pb₀:
    ξ_b, ξ_c are commuting grading lifts of the chambers pb, pc, their
    joint centralizer l is a Levi of both, and lb is a Levi of pb and
    of pb₀, lb = l when pb is pb₀.

    Proof: take v ∈ exp(ad nil(pb)) with v·l = lb.  ξ ∈ l ⊆ pb and
    nil(pb) is an ideal of pb, so v·ξ − ξ ∈ nil(pb) and v·ξ ∈ lb: v acts
    on l as the lb-component in pb = lb ⊕ nil(pb) (as in
    levi_transport, which then applies the u′ ∈ exp(ad nil(pb₀)) with
    u′·lb = ml).  So u = u′v is inner, u·l = ml and η = u·ξ ∈ ml.  A
    parabolic is the nonpositive part of ad of its grading lift (as in
    opposite), so u·pb = ml ⊕ ⊕_{α(η_b) ≤ 0} g_α; likewise for pc.  The
    dimension check on this root set S_b also shows that no α(η_b) is
    0: S_b contains the root set of a chamber, that of a nearby regular
    η, and strictly so if some α(η_b) = 0.  W acts simply transitively
    on the chambers of the apartment, so descending S_b to the base
    chamber applies w_b⁻¹, and the same reflections carry S_c to
    w_b⁻¹w_c·C₀, whose word is the descent of it, reversed."""
    if pb is not ss.chamber:
        xi_b, xi_c = (_levi_component(pb, lb, x) for x in (xi_b, xi_c))
    sb, sc = (_nonpositive_roots(ss, levi_transport(ss, lb, x),
                                 ss.chamber.dim) for x in (xi_b, xi_c))
    base_neg = ss.negative_roots()
    word, s = _descend(ss, sb)
    for i in word:
        sc = frozenset(ss.reflections[i][a] for a in sc)
    word, t = _descend(ss, sc)
    if s != base_neg or t != base_neg:
        raise InternalCheckError("chamber descent missed the base chamber")
    return word[::-1]


def _nonpositive_roots(ss: SimpleSystem, eta, dim):
    """{α : α(η) ≤ 0}, the root set of ml ⊕ ⊕_{α(η) ≤ 0} g_α for η ∈
    ml, checked to have dimension dim."""
    rd = ss.rd
    S = frozenset(a for a in rd.roots if rd.eval_root(a, eta) <= 0)
    if rd.levi.dim + sum(rd.root_spaces[a].dim for a in S) != dim:
        raise InternalCheckError("nonpositive part of wrong dimension")
    return S


def standardize_type(ss: SimpleSystem, eta, dim):
    """Type of the parabolic ml ⊕ ⊕_{α(η) ≤ 0} g_α of dimension dim,
    for η ∈ ml: descend its root set into standard position and read
    off the simples it misses."""
    _, S = _descend(ss, _nonpositive_roots(ss, eta, dim))
    if not ss.negative_roots() <= S:
        raise InternalCheckError("standardized root set not standard")
    return frozenset(a for a in ss.simples if a not in S)


def levi_transport(ss: SimpleSystem, l: Subspace, xi):
    """u·ξ, for l a Levi complement of nil(pb) in the base chamber pb,
    ξ ∈ l, and u the element of exp(ad nil(pb)) with u·l = ml: the
    ml-component of ξ in pb = ml ⊕ nil(pb).

    Proof: ξ ∈ pb and nil(pb) is an ideal of pb, so u·ξ − ξ ∈ nil(pb);
    u·ξ ∈ u·l = ml; and ml ∩ nil(pb) = 0.  When ξ is a grading lift of
    a parabolic p ⊇ l, p is the nonpositive part of ad ξ (as in
    opposite), so u·p = ml ⊕ ⊕_{α(η) ≤ 0} g_α with η = u·ξ.  ξ is
    unique up to z(g) ∩ l, and roots vanish on z(g)."""
    rd = ss.rd
    pb = ss.chamber
    if l.dim != rd.levi.dim:
        raise InternalCheckError("common Levi has wrong dimension")
    if not pb.has_levi(l):
        raise InternalCheckError("common Levi not a complement in the"
                                 " base chamber")
    if not l.contains_vector(xi):
        raise InternalCheckError("grading element not in the common Levi")
    return _levi_component(pb, rd.levi, xi)


def _levi_component(p: ParabolicData, l: Subspace, x):
    """The l-component of x ∈ p in p = l ⊕ nil(p), for l a Levi of p."""
    lv = l.vectors()
    t, _ = solve(Matrix(lv + p.nilradical.vectors()).transpose(), x)
    return lincomb(t[:len(lv)], lv, len(x))


def type_of_any(ss: SimpleSystem, p: ParabolicData):
    """Type of an arbitrary parabolic relative to the base simple
    system: the grading lift ξ_p that common_levi(p, pb) returns with
    the common Levi l, moved into ml by an inner automorphism
    (levi_transport), then standardized: the adjoint-orbit type.  Any
    other lift of p in l differs from ξ_p by an element of z(g), where
    every root vanishes (common_levi), so the type is the same."""
    l, xi, _ = common_levi(p, ss.chamber)
    return standardize_type(ss, levi_transport(ss, l, xi), p.dim)


def quotient_simple_system(ss: SimpleSystem, q: ParabolicData):
    """(ss0, ι) for a center q, read in the base apartment of ss: ss0
    is the simple system of the Levi quotient q0 at the image pb0 of
    the chamber C ⊆ q that parabolic projection finds, and ι sends each
    simple of ss0 to the base type of the maximal parabolic ⊇ C that
    the matching simple of C alone crosses.

    C = pb ∩ q + nil(q) is the projection of the base chamber pb to q,
    a chamber (the quotient recognizer and simple_system check its
    image pb0), and C = pb when q ⊇ pb.  l is ml when q ⊇ pb, and
    otherwise l = common_levi(q, pb)[0] ⊆ pb ∩ q ⊆ C.  levi_transport
    checks that l is a Levi of pb and acts on l as the u ∈ exp(ad
    nil(pb)) with u·l = ml; u fixes pb.

    a_l = l ∩ (a + nil(pb)) is a split Cartan of l: for h ∈ l, u·h is
    the ml-component of h in pb = ml ⊕ nil(pb), which lies in a iff h
    ∈ a + nil(pb).  So a_l = u⁻¹·a, the image of a split Cartan under
    an automorphism, and its roots are the α ∘ u for the roots α of a;
    l need be neither abelian nor split.

    The quotient roots: l ∩ nil(q) ⊆ l ∩ nil(C) = 0, so q → q0 maps a_l
    onto a0 isomorphically, and on the preimages h_k ∈ a_l of a0's
    canonical basis α ∘ u reads r(α) = (α(u·h_k))_k, one-to-one in α.
    The roots of q0 at a0 are those of the Levi of q through l at a_l,
    so they are among the r(α), which root_decomposition's fill check
    certifies.

    ι: the lift ξ_q of q that common_levi returns lies in l, and η =
    u·ξ_q ∈ ml.  As in levi_transport, u·q = ml ⊕ ⊕_{α(η) ≤ 0} g_α with
    nil(u·q) the part α(η) < 0, and u·pb = pb, so u·C = pb ∩ u·q +
    nil(u·q) has the root set S = {α(η) < 0} ∪ {α ∈ Φ⁻ : α(η) = 0}.
    The α(η) are integers and Φ⁻ = {α(ξ₀) < 0} for the grading element
    ξ₀ of pb in a, so S = {α(nη + ξ₀) ≤ 0} for n above every |α(ξ₀)|.
    _descend carries S to Φ⁻ by some w⁻¹, so S = w(Φ⁻) and the simples
    of u·C are the w(α), α a base simple.  u·q contains u·C, so it is
    standard for them, and the quotient's positive roots are those
    outside pb0: its simples are the w(α) with w(α)(η) = 0, read
    through r, and ι(r(w(α))) = α.  When q ⊇ pb, u = w = 1 and no lift
    is made.

    ι agrees with type_of_any(ss, q^β) for β = w(α) and q^β the
    maximal parabolic ⊇ C that β alone crosses: u·q^β has the root set
    w(S_α), S_α that of the standard q^α, and the descent in
    standardize_type ends at the one standard root set in the W-orbit
    of w(S_α), which is S_α, so the type is {α}.

    For a standard center, a_l = a and r(α) is α read on the preimages
    in a: ss0 is the simple system of the root datum of q0 at the image
    of a, found at the same candidates, over the image of pb.
    """
    g, rd, pb = q.ambient, ss.rd, ss.chamber
    lq = q.levi_quotient()
    # C = pb ∩ q + nil(q), which is pb when q ⊇ pb
    chamber = pb.space.intersect(q.space).sum(q.nilradical)
    pb0 = make_parabolic(lq.algebra, lq.project_space(chamber))
    standard = q.space.contains(pb.space)
    if standard:
        a_l, word = rd.cartan, []
    else:
        l, xi_q, _ = common_levi(q, pb)
        eta = levi_transport(ss, l, xi_q)
        n = 1 + max(abs(j) for j in ss.levels.values())
        word, S = _descend(ss, _nonpositive_roots(
            ss, lincomb((n, 1), (eta, ss.xi), g.dim), chamber.dim))
        if S != ss.negative_roots():
            raise InternalCheckError("chamber descent missed the base"
                                     " chamber")
        a_l = l.intersect(rd.cartan.sum(pb.nilradical))
    a0 = lq.project_space(a_l)
    if a0.dim != rd.cartan.dim:
        raise InternalCheckError("split Cartan of the common Levi does not"
                                 " map onto one of the Levi quotient")
    av = a_l.vectors()
    onto = Matrix([lq.project_vector(h) for h in av]).transpose()
    pre = [lincomb(solve(onto, b)[0], av, g.dim) for b in a0.vectors()]
    moved = pre if standard else [levi_transport(ss, l, h) for h in pre]

    def restrict(alpha):
        return tuple(rd.eval_root(alpha, h) for h in moved)

    rd0 = root_decomposition(lq.algebra, a0, [restrict(a)
                                              for a in rd.roots])
    ss0 = simple_system(rd0, pb0)
    local = {}
    for alpha in ss.simples:
        beta = alpha
        for i in reversed(word):
            beta = ss.reflections[i][beta]
        local[restrict(beta)] = alpha
    if not local.keys() >= set(ss0.simples):
        raise InternalCheckError("quotient simple that is no simple of"
                                 " the center's chamber")
    return ss0, {b: local[b] for b in ss0.simples}


def duality_involution(ss: SimpleSystem) -> dict:
    """op: for each simple α, the type of the opposite of the maximal
    parabolic q^α: the nonpositive part of −ξ^α, for ξ^α the grading
    element of q^α in the Cartan ⊆ ml; it has q^α's dimension, since
    g_α and g_−α do.  Computed once per simple system.  op∘op = id is
    checked, which also makes op a bijection of the simples."""
    if ss._duality is not None:
        return ss._duality
    op = {}
    for alpha in ss.simples:
        q = parabolic_from_subset(ss, {alpha})
        t = standardize_type(ss, vec_scale(-1, q.grading_element), q.dim)
        if len(t) != 1:
            raise InternalCheckError("opposite of a maximal parabolic"
                                     " not maximal")
        (op[alpha],) = t
    if any(op[op[a]] != a for a in op):
        raise InternalCheckError("duality map not an involution")
    ss._duality = op
    return op
