"""Incidence systems, flags, chamber systems, thin apartment models,
W-distance, Lie apartments, and coresidue reconstruction.

Chambers of combinatorial models are plain tuples; chambers of flag
complexes are frozensets of element ids; chambers of Lie apartments
are identified with their root sets (which determine the minimal
parabolic subspaces bijectively).  Weyl words come from one descent by
simple reflections (rootdata._descend); their canonical forms descend
once more, by right descents, instead of searching W.  The W-distance
between two Lie chambers is read in the base apartment: one inner
automorphism moves both into it, through their grading elements
(rootdata.apartment_word), so no root datum is built for them.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, permutations

from .errors import DomainError, InternalCheckError
from .parabolic import (
    ParabolicData,
    common_levi,
    make_parabolic,
)

__all__ = [
    "IncidenceSystem",
    "ChamberSystem",
    "ThinChamberSystem",
    "WDistance",
    "flags",
    "chambers_from_incidence",
    "apartment_model_A",
    "apartment_model_B",
    "w_distance",
    "LieApartment",
    "lie_apartment",
    "delta_parabolic",
    "coresidues",
    "is_residually_connected",
    "ec_reconstruction_isomorphic",
    "labelled_isomorphism",
]


class IncidenceSystem:
    """Multipartite graph: elements with type labels, symmetric
    irreflexive incidence."""

    def __init__(self, types: dict, edges):
        self.types = dict(types)  # element -> type label
        self.edges = set()
        for u, v in edges:
            if u == v:
                raise DomainError("incidence must be irreflexive")
            if u not in self.types or v not in self.types:
                raise DomainError("edge on unknown element")
            if self.types[u] == self.types[v]:
                raise DomainError(
                    "incident elements of equal type must be equal"
                )
            self.edges.add(frozenset((u, v)))

    def type_set(self):
        return frozenset(self.types.values())

    def elements(self):
        return list(self.types)

    def elements_of_type(self, t):
        return [e for e, tt in self.types.items() if tt == t]

    def incident(self, u, v):
        return frozenset((u, v)) in self.edges

    def neighbors(self, u):
        out = []
        for e in self.edges:
            if u in e:
                (v,) = e - {u}
                out.append(v)
        return out


def flags(gamma: IncidenceSystem, J):
    """J-flags: pairwise-incident sets with exactly one element per
    type in J."""
    J = list(J)
    out = [frozenset()]
    for t in J:
        nxt = []
        for f in out:
            for e in gamma.elements_of_type(t):
                if all(gamma.incident(e, x) for x in f):
                    nxt.append(f | {e})
        out = nxt
    return out


def full_flags(gamma: IncidenceSystem):
    return flags(gamma, sorted(gamma.type_set(), key=repr))


class ChamberSystem:
    """Chambers with one equivalence relation (panel partition) per
    label."""

    def __init__(self, chambers, panels: dict):
        self.chambers = list(chambers)
        cset = set(self.chambers)
        if len(cset) != len(self.chambers):
            raise DomainError("duplicate chambers")
        self.panels = {}
        for label, parts in panels.items():
            parts = [frozenset(p) for p in parts]
            seen = set()
            for p in parts:
                if not p or p & seen:
                    raise DomainError("panels do not partition")
                seen |= p
            if seen != cset:
                raise DomainError("panels do not cover the chambers")
            self.panels[label] = parts

    def labels(self):
        return sorted(self.panels, key=repr)

    def edges(self):
        out = []
        for label, parts in self.panels.items():
            for p in parts:
                for b, c in combinations(sorted(p, key=repr), 2):
                    out.append((label, b, c))
        return out

    def components(self, skip=None):
        """Connected components through every panel whose label is not
        skip: the coresidues of type skip.  Listed in the order of their
        first chamber in self.chambers."""
        panel = {label: {c: p for p in parts for c in p}
                 for label, parts in self.panels.items() if label != skip}
        seen = set()
        out = []
        for c in self.chambers:
            if c in seen:
                continue
            seen.add(c)
            comp = [c]
            for b in comp:
                for of in panel.values():
                    new = of[b] - seen
                    seen |= new
                    comp.extend(new)
            out.append(frozenset(comp))
        return out

    def is_connected(self):
        return len(self.components()) <= 1


class ThinChamberSystem:
    """Chamber system in which every panel has exactly two chambers;
    carries the panel-swap involutions and the group they generate."""

    def __init__(self, cs: ChamberSystem):
        self.cs = cs
        self.involutions = {}
        for label, parts in cs.panels.items():
            inv = {}
            for p in parts:
                if len(p) != 2:
                    raise DomainError("panel of size != 2 in a thin"
                                      " system")
                a, b = sorted(p, key=repr)
                inv[a] = b
                inv[b] = a
            self.involutions[label] = inv

    @property
    def chambers(self):
        return self.cs.chambers

    def labels(self):
        return self.cs.labels()

    def apply(self, label, chamber):
        return self.involutions[label][chamber]

    def walk(self, chamber, word):
        for label in word:
            chamber = self.apply(label, chamber)
        return chamber

    def structure_group(self):
        """Group generated by the involutions, acting on chambers, as
        {permutation: shortlex-minimal word} in label order."""
        chambers = sorted(self.chambers, key=repr)
        index = {c: i for i, c in enumerate(chambers)}

        def right_action(label):
            # first el, then the generator
            gperm = tuple(self.involutions[label][c] for c in chambers)
            return lambda el: tuple(gperm[index[c]] for c in el)

        moves = [(label, right_action(label)) for label in self.labels()]
        return _shortlex(tuple(chambers), moves), chambers


def _shortlex(start, moves):
    """Breadth-first search from start; at each state the moves, a
    list of (symbol, step), are tried in order and the first word to
    reach a state wins.  Returns {state: shortlex-minimal word}."""
    seen = {start: ()}
    queue = [start]
    while queue:
        nxt = []
        for x in queue:
            w = seen[x]
            for symbol, step in moves:
                y = step(x)
                if y not in seen:
                    seen[y] = w + (symbol,)
                    nxt.append(y)
        queue = nxt
    return seen


def apartment_model_A(n: int) -> ThinChamberSystem:
    """Orderings of an (n+1)-set; generator j swaps positions j, j+1.
    The group generated is the full symmetric group."""
    if n < 1:
        raise DomainError("n must be >= 1")
    chambers = list(permutations(range(n + 1)))
    panels = {}
    for j in range(n):
        parts = {}
        for c in chambers:
            d = list(c)
            d[j], d[j + 1] = d[j + 1], d[j]
            key = frozenset((c, tuple(d)))
            parts[key] = key
        panels[j] = list(parts.values())
    return ThinChamberSystem(ChamberSystem(chambers, panels))


def apartment_model_B(n: int) -> ThinChamberSystem:
    """Signed orderings of an n-set; generators j < n-1 swap adjacent
    positions, generator n-1 flips the sign of the last position.
    The group generated is the hyperoctahedral group."""
    if n < 1:
        raise DomainError("n must be >= 1")
    chambers = []
    for p in permutations(range(1, n + 1)):
        for signs in range(1 << n):
            chambers.append(tuple(
                v if not (signs >> i) & 1 else -v for i, v in enumerate(p)
            ))
    panels = {}
    for j in range(n):
        parts = {}
        for c in chambers:
            d = list(c)
            if j < n - 1:
                d[j], d[j + 1] = d[j + 1], d[j]
            else:
                d[n - 1] = -d[n - 1]
            key = frozenset((c, tuple(d)))
            parts[key] = key
        panels[j] = list(parts.values())
    return ThinChamberSystem(ChamberSystem(chambers, panels))


class WDistance:
    """Shortlex gallery distance on a thin chamber system with a
    simply transitive structure group."""

    def __init__(self, thin: ThinChamberSystem):
        self.thin = thin
        if not thin.cs.is_connected():
            raise DomainError("chamber system not connected")
        group, chambers = thin.structure_group()
        if len(group) != len(chambers):
            raise DomainError(
                "structure group does not act simply transitively"
            )
        self.group = group
        self._cache = {}

    def delta(self, b, c):
        """Shortlex-minimal word of a gallery from b to c."""
        if b not in self._cache:
            self._cache[b] = _shortlex(b, [
                (label, partial(self.thin.apply, label))
                for label in self.thin.labels()
            ])
        return self._cache[b][c]

    def table(self):
        return {
            b: {c: self.delta(b, c) for c in self.thin.chambers}
            for b in self.thin.chambers
        }


def w_distance(thin: ThinChamberSystem) -> WDistance:
    return WDistance(thin)


def chambers_from_incidence(gamma: IncidenceSystem) -> ChamberSystem:
    """Chambers are full flags; i-adjacency iff the subflags of
    complementary type agree."""
    ts = sorted(gamma.type_set(), key=repr)
    cs = full_flags(gamma)
    if not cs:
        raise DomainError("no full flags")
    panels = {}
    for t in ts:
        groups = {}
        for f in cs:
            rest = frozenset(e for e in f if gamma.types[e] != t)
            groups.setdefault(rest, []).append(f)
        panels[t] = [frozenset(v) for v in groups.values()]
    return ChamberSystem(cs, panels)


# ---------------------------------------------------------------------------
# Lie apartments


class LieApartment:
    """The thin chamber system of minimal parabolics containing one
    minimal Levi, realized on one apartment."""

    def __init__(self, ss, thin: ThinChamberSystem, spaces: dict):
        self.ss = ss
        self.thin = thin
        self.spaces = spaces  # chamber (root-set) -> Subspace

    @property
    def chambers(self):
        return self.thin.chambers

    def parabolic(self, chamber) -> ParabolicData:
        return make_parabolic(self.ss.rd.ambient, self.spaces[chamber])

    def chamber_of(self, pd: ParabolicData):
        for c, s in self.spaces.items():
            if s == pd.space:
                return c
        raise DomainError("parabolic is not a chamber of this apartment")


def lie_apartment(g, rd) -> LieApartment:
    """Enumerate the minimal parabolics containing rd's Levi by
    applying all Weyl images to a base chamber; i-adjacency iff the
    two chambers generate the same cotype-{i} parabolic (compared via
    their root sets, which determine the subspaces)."""
    from .rootdata import simple_system

    ss = simple_system(rd, rd.nonpositive_parabolic(rd.regular_element()))

    # orbit of the base chamber under the simple reflections, tracking
    # the image of each simple root (the chamber's own walls)
    def move(perm):
        return lambda st: (frozenset(perm[a] for a in st[0]),
                           tuple(perm[a] for a in st[1]))

    start = (ss.negative_roots(), tuple(ss.simples))
    states = {}
    for neg, walls in _shortlex(start, [(i, move(p)) for i, p in
                                        enumerate(ss.reflections)]):
        states.setdefault(neg, set()).add(walls)
    # a frozenset's repr can follow the order its roots were inserted
    # in, here the path that found it; rebuild each from sorted roots
    chambers = sorted((frozenset(sorted(c)) for c in states), key=repr)
    spaces = {c: rd.span_of(c) for c in chambers}
    panels = {}
    for i in range(len(ss.simples)):
        groups = {}
        for c in chambers:
            walls = next(iter(states[c]))
            # the cotype-{i} parabolic above c: adjoin the i-th wall
            sup = frozenset(c | {walls[i]})
            groups.setdefault(sup, []).append(c)
        panels[i] = [frozenset(v) for v in groups.values()]
    thin = ThinChamberSystem(ChamberSystem(chambers, panels))
    apt = LieApartment(ss, thin, spaces)
    for c, ws in states.items():
        if len(ws) > 1:
            # same chamber reached with different wall orderings would
            # make the i-labels ill-defined
            raise InternalCheckError("ambiguous wall labelling")
    return apt


def canonical_word(ss, word):
    """Shortlex-canonical form of a word in simple reflections, with
    generators enumerated in the order of ss.simples; a word is a
    sequence of positions into ss.simples, the result a tuple of them.

    Let w be the root map that applies the word's reflections in turn
    (a word u gives σ_{u_k}∘…∘σ_{u_1}), and call σ_α a right descent
    of w when w(α) < 0, which holds iff ℓ(wσ_α) = ℓ(w) − 1 (Björner–
    Brenti, Combinatorics of Coxeter Groups, ch. 3-4).  The first
    letters of the reduced words for w are exactly its right descents:
    dropping a first letter σ_α leaves a word for wσ_α, so ℓ(wσ_α) <
    ℓ(w); and σ_α followed by a reduced word for wσ_α is a word for w
    of length ℓ(w).  So the shortlex-least word, which is reduced,
    starts with the first right descent and continues with the
    shortlex-least word for wσ_α.  Each step shortens w by one, so the
    loop ends, and it returns the word that the breadth-first shortlex
    search over W returns."""
    perms = ss.reflections
    w = {r: r for r in ss.rd.roots}
    for i in word:
        w = {r: perms[i][x] for r, x in w.items()}
    out = []
    while True:
        i = next((i for i, a in enumerate(ss.simples)
                  if ss.levels[w[a]] < 0), None)
        if i is None:
            return tuple(out)
        w = {r: w[perms[i][r]] for r in w}
        out.append(i)


def delta_parabolic(pb: ParabolicData, pc: ParabolicData, base_ss):
    """Canonical Weyl word between two minimal parabolics, read in the
    base apartment: for the commuting lifts (ξ_b, ξ_c) that common_levi
    returns with their joint centralizer l, a Levi of both chambers,
    rootdata.apartment_word moves both by one inner u into it, u·pb =
    w_b·C₀ and u·pc = w_c·C₀.  δ is invariant under inner
    automorphisms, and the panel of type i of w·C₀ is crossed by
    w s_i w⁻¹, so δ(pb, pc) = w_b⁻¹w_c in the labels of base_ss's
    simples (indices into base_ss.simples).

    Non-minimal input is a DomainError: p contains a minimal p₀,
    conjugate to base_ss.chamber, and nil(p) ⊆ nil(p₀), so equal
    nilradical dimensions give nil(p) = nil(p₀) and p = p₀ (each is the
    perp of its nilradical).  δ(p, p) is the empty word, found without a
    lift.
    """
    from .rootdata import apartment_word

    base = base_ss.chamber
    nil_dim = base.nilradical.dim
    if pb.nilradical.dim != nil_dim or pc.nilradical.dim != nil_dim:
        raise DomainError("not a minimal parabolic")
    if pb == pc:
        return ()
    if pb == base:
        pb = base  # carries its filtration already
    l, xi_b, xi_c = common_levi(pb, pc)
    if not (pb.has_levi(l) and pc.has_levi(l)):
        raise InternalCheckError("common Levi is not a complement of the"
                                 " nilradical")
    lb = l if pb is base else common_levi(pb, base)[0]
    if lb is not l and not pb.has_levi(lb):
        raise InternalCheckError("common Levi with the base chamber is not"
                                 " a complement of nil(pb)")
    return canonical_word(base_ss, apartment_word(base_ss, pb, lb,
                                                  xi_b, xi_c))


# ---------------------------------------------------------------------------
# coresidues and reconstruction


def coresidues(delta: ChamberSystem) -> IncidenceSystem:
    """Elements of type i are the connected components after deleting
    the i-labelled edges; incident iff they share a chamber."""
    types = {}
    for label in delta.labels():
        for p in delta.components(skip=label):
            types[(label, p)] = label
    edges = []
    els = list(types)
    for u, v in combinations(els, 2):
        if types[u] != types[v] and u[1] & v[1]:
            edges.append((u, v))
    return IncidenceSystem(types, edges)


def is_residually_connected(gamma: IncidenceSystem) -> bool:
    """Any two full flags through a common element are joined by a
    gallery avoiding that element's type."""
    delta = chambers_from_incidence(gamma)
    component = {}  # type -> chamber -> its component without that type
    for t in gamma.type_set():
        component[t] = {c: i for i, p in enumerate(delta.components(t))
                        for c in p}
    for v in gamma.elements():
        of = component[gamma.types[v]]
        if len({of[f] for f in delta.chambers if v in f}) > 1:
            return False
    return True


def ec_reconstruction_isomorphic(gamma: IncidenceSystem) -> bool:
    """Whether elements ↦ coresidue components of the flag chamber
    system is an incidence isomorphism onto E C Γ."""
    delta = chambers_from_incidence(gamma)
    rec = coresidues(delta)
    mapping = {}
    for v in gamma.elements():
        t = gamma.types[v]
        through = frozenset(f for f in delta.chambers if v in f)
        image = None
        for el in rec.elements_of_type(t):
            if el[1] == through:
                image = el
                break
        if image is None:
            return False
        mapping[v] = image
    if len(set(mapping.values())) != len(mapping):
        return False
    if len(mapping) != len(rec.elements()):
        return False
    for u in gamma.elements():
        for v in gamma.elements():
            if u == v:
                continue
            if gamma.incident(u, v) != rec.incident(mapping[u], mapping[v]):
                return False
    return True


# ---------------------------------------------------------------------------
# labelled isomorphism of thin chamber systems


def labelled_isomorphism(thin1: ThinChamberSystem,
                         thin2: ThinChamberSystem):
    """Search for a chamber bijection intertwining the involutions, up
    to a bijection of label sets.  Returns (label_map, chamber_map) or
    None."""
    l1, l2 = thin1.labels(), thin2.labels()
    if len(l1) != len(l2) or len(thin1.chambers) != len(thin2.chambers):
        return None
    base = thin1.chambers[0]
    for perm in permutations(l2):
        lmap = dict(zip(l1, perm))
        for c0 in thin2.chambers:
            cmap = {base: c0}
            stack = [base]
            ok = True
            while stack and ok:
                b = stack.pop()
                for lab in l1:
                    nb = thin1.apply(lab, b)
                    img = thin2.apply(lmap[lab], cmap[b])
                    if nb in cmap:
                        if cmap[nb] != img:
                            ok = False
                            break
                    else:
                        cmap[nb] = img
                        stack.append(nb)
            if ok and len(cmap) == len(thin1.chambers) and \
                    len(set(cmap.values())) == len(cmap):
                return lmap, cmap
    return None


def to_dot(obj) -> str:
    """DOT export for incidence and chamber systems."""
    lines = ["graph G {"]
    if isinstance(obj, IncidenceSystem):
        names = {e: '"%s"' % _dot_name(e) for e in obj.elements()}
        for e, n in names.items():
            lines.append('  %s [type="%s"];' % (n, obj.types[e]))
        for edge in sorted(obj.edges, key=repr):
            u, v = sorted(edge, key=repr)
            lines.append("  %s -- %s;" % (names[u], names[v]))
    elif isinstance(obj, ChamberSystem):
        names = {c: '"%s"' % _dot_name(c) for c in obj.chambers}
        for label, b, c in sorted(obj.edges(), key=repr):
            lines.append('  %s -- %s [label="%s"];'
                         % (names[b], names[c], label))
    elif isinstance(obj, ThinChamberSystem):
        return to_dot(obj.cs)
    else:
        raise DomainError("unsupported object for DOT export")
    lines.append("}")
    return "\n".join(lines)


def _dot_name(x) -> str:
    if isinstance(x, frozenset):
        return "{%s}" % ",".join(sorted(_dot_name(y) for y in x))
    if isinstance(x, tuple):
        return "(%s)" % ",".join(_dot_name(y) for y in x)
    return str(x).replace('"', "'")
