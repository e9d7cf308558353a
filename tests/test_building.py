from fractions import Fraction as Q
from functools import lru_cache
from math import factorial

import pytest

import liepar.building as building
import liepar.rootdata as rootdata
from liepar.building import (
    ChamberSystem,
    IncidenceSystem,
    _shortlex,
    apartment_model_A,
    apartment_model_B,
    canonical_word,
    chambers_from_incidence,
    coresidues,
    delta_parabolic,
    ec_reconstruction_isomorphic,
    flags,
    full_flags,
    is_residually_connected,
    labelled_isomorphism,
    lie_apartment,
    to_dot,
    w_distance,
)
from liepar.catalog import (
    FlagSpec,
    flag_stabilizer,
    gl,
    incidence_model_admissible,
    incidence_model_subsets,
    so,
    standard_borel,
    standard_minimal_levi,
    standard_simple_system,
)
from liepar.errors import DomainError, InternalCheckError
from liepar.parabolic import conjugate_parabolic, make_parabolic, opposite
from liepar.ratmat import Subspace, lincomb


def test_model_A_counts():
    for n in (1, 2, 3):
        thin = apartment_model_A(n)
        assert len(thin.chambers) == factorial(n + 1)
        assert sorted(thin.labels()) == list(range(n))
        group, _ = thin.structure_group()
        assert len(group) == factorial(n + 1)


def test_model_B_counts():
    for n in (1, 2, 3):
        thin = apartment_model_B(n)
        assert len(thin.chambers) == (1 << n) * factorial(n)
        group, _ = thin.structure_group()
        assert len(group) == (1 << n) * factorial(n)


def test_model_A2_distances():
    thin = apartment_model_A(2)
    wd = w_distance(thin)
    e = (0, 1, 2)
    assert wd.delta(e, e) == ()
    assert wd.delta(e, (1, 0, 2)) == (0,)
    # the longest element has length 3 and the word is shortlex-minimal
    longest = (2, 1, 0)
    assert wd.delta(e, longest) == (0, 1, 0)
    lengths = sorted(len(wd.delta(e, c)) for c in thin.chambers)
    assert lengths == [0, 1, 1, 2, 2, 3]


def test_delta_inverse_law():
    thin = apartment_model_B(2)
    wd = w_distance(thin)
    e = (1, 2)
    for c in thin.chambers:
        w = wd.delta(e, c)
        back = wd.delta(c, e)
        assert len(w) == len(back)
        assert thin.walk(e, w) == c and thin.walk(c, back) == e


def test_lie_apartments_match_models():
    cases = [
        (gl(2), apartment_model_A(1)),
        (gl(3), apartment_model_A(2)),
        (so(3, 2), apartment_model_B(2)),
    ]
    for g, model in cases:
        _, rd = standard_minimal_levi(g)
        ap = lie_apartment(g, rd)
        assert labelled_isomorphism(ap.thin, model) is not None
        # chambers round-trip through parabolics
        c = next(iter(ap.thin.chambers))
        assert ap.chamber_of(ap.parabolic(c)) == c


@pytest.mark.parametrize("make", [lambda: gl(3), lambda: so(3, 2),
                                  lambda: gl(4)], ids=["gl3", "so32", "gl4"])
def test_nonpositive_parabolic_of_a_regular_element(make):
    # no root vanishes on a regular element, so α(h) ≤ 0 and α(h) < 0
    # pick the same roots: the base chamber of the Lie apartment
    g = make()
    rd = standard_minimal_levi(g)[1]
    h = rd.regular_element()
    pb = rd.nonpositive_parabolic(h)
    assert pb.space == rd.span_of(
        a for a in rd.roots if rd.eval_root(a, h) < 0)
    assert lie_apartment(g, rd).ss.chamber == pb


ALGEBRAS = {"gl3": lambda: gl(3), "gl4": lambda: gl(4),
            "so32": lambda: so(3, 2), "so43": lambda: so(4, 3)}


@lru_cache(maxsize=None)
def apartment_words(name):
    """The Lie apartment of a catalog algebra and the Weyl word of each
    of its chambers."""
    g = ALGEBRAS[name]()
    ap = lie_apartment(g, standard_minimal_levi(g)[1])
    return ap, {c: rootdata.weyl_word(ap.ss, ap.parabolic(c))
                for c in ap.chambers}


@pytest.mark.parametrize("name, pad_every", [
    ("gl3", True), ("gl4", True), ("so32", True), ("so43", False)])
def test_canonical_word_matches_the_shortlex_search(name, pad_every):
    ap, words = apartment_words(name)
    ss = ap.ss

    def act(i):
        p = ss.reflections[i]
        return lambda el: tuple(p[r] for r in el)

    # the search over all of W that canonical_word replaces
    ident = tuple(sorted(ss.rd.roots))
    n = len(ss.simples)
    oracle = _shortlex(ident, [(i, act(i)) for i in range(n)])
    for word in words.values():
        target = ident
        for i in word:
            target = act(i)(target)
        assert canonical_word(ss, word) == oracle[target]
        # a word that is not reduced has the same canonical form: padded
        # with σ_i σ_i for every i in front, in the middle and at the end,
        # or with σ_0 σ_0 at the end
        cuts = (0, len(word) // 2, len(word)) if pad_every else (len(word),)
        for i in range(n) if pad_every else range(1):
            for cut in cuts:
                padded = word[:cut] + [i, i] + word[cut:]
                assert canonical_word(ss, padded) == oracle[target]


@pytest.mark.parametrize("name", ["gl4", "so43"])
def test_weyl_word_is_reduced(name):
    # its length is the number of walls between the base chamber and
    # the target: the positive roots in the target's root set
    ap, words = apartment_words(name)
    assert len(words) == len(set(map(tuple, words.values())))
    for c, word in words.items():
        assert len(word) == len(c & ap.ss.positive_roots())


def test_delta_parabolic_gl3():
    g = gl(3)
    pb = standard_borel(g)
    ss = standard_simple_system(g)
    w = delta_parabolic(pb, opposite(pb), ss)
    assert len(w) == 3
    assert delta_parabolic(pb, pb, ss) == ()


def test_delta_parabolic_non_involution_gl3():
    # the flag <e2> < <e2,e3> sits at the 3-cycle e1 -> e2 -> e3 -> e1
    # from the standard flag: length 2, not an involution
    g = gl(3)
    pb = standard_borel(g)
    ss = standard_simple_system(g)
    e = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    flag = FlagSpec(3, [Subspace.from_vectors(3, [e[1]]),
                        Subspace.from_vectors(3, [e[1], e[2]])])
    pc = flag_stabilizer(g, flag)
    w = delta_parabolic(pb, pc, ss)
    assert len(w) == 2
    assert delta_parabolic(pc, pb, ss) == tuple(reversed(w))


def test_delta_parabolic_so32():
    g = so(3, 2)
    pb = standard_borel(g)
    ss = standard_simple_system(g)
    assert len(delta_parabolic(pb, opposite(pb), ss)) == 4


@pytest.mark.parametrize("make,word", [(lambda: gl(3), (0, 1, 0)),
                                       (lambda: so(3, 2), (0, 1, 0, 1))],
                         ids=["gl3", "so32"])
def test_delta_parabolic_from_an_equal_base_chamber(make, word,
                                                    monkeypatch):
    g = make()
    ss = standard_simple_system(g)
    pb = make_parabolic(g, Subspace.from_vectors(
        g.dim, ss.chamber.space.vectors()))
    assert pb == ss.chamber and pb is not ss.chamber
    pc = opposite(ss.chamber, ss.xi)
    assert delta_parabolic(ss.chamber, pc, ss) == word
    # the base chamber's own root datum and simple system serve it
    def rebuilt(*args):
        raise AssertionError("base root datum recomputed")

    monkeypatch.setattr(rootdata, "root_decomposition", rebuilt)
    monkeypatch.setattr(rootdata, "simple_system", rebuilt)
    assert delta_parabolic(pb, pc, ss) == word


@pytest.mark.parametrize("make,word", [(lambda: gl(3), (0, 1, 0)),
                                       (lambda: so(3, 2), (0, 1, 0, 1))],
                         ids=["gl3", "so32"])
def test_delta_parabolic_from_the_base_chamber_transports_nothing(
        make, word, monkeypatch):
    g = make()
    ss = standard_simple_system(g)
    pb = standard_borel(g)
    # from the base chamber, lb = l: no common Levi with the base chamber
    # is sought, and the lifts reach levi_transport as they are, not
    # moved within pb
    seconds, lifts, moved = [], [], []
    real_levi, real_transport = building.common_levi, \
        rootdata.levi_transport

    def levi(p, q):
        seconds.append(q)
        l, xi_p, xi_q = real_levi(p, q)
        lifts.extend((xi_p, xi_q))
        return l, xi_p, xi_q

    def transporting(base_ss, l, xi):
        moved.append(xi)
        return real_transport(base_ss, l, xi)

    monkeypatch.setattr(building, "common_levi", levi)
    monkeypatch.setattr(rootdata, "levi_transport", transporting)
    assert delta_parabolic(pb, opposite(pb), ss) == word
    assert delta_parabolic(pb, pb, ss) == ()
    assert not any(q is ss.chamber for q in seconds)
    # δ(B, B) is () before any lift: only δ(B, opposite) lifts
    assert moved == lifts and len(lifts) == 2


def grown(g, p, q, lifts):
    # both lifts replaced by a fundamental coweight: its centralizer is
    # the Levi of a maximal parabolic, a complement of neither nilradical
    ss = standard_simple_system(g)
    omega = ss.fundamental_coweights[ss.simples[0]]
    return omega, omega


def moved_in_p(g, p, q, lifts):
    # the lifts moved by exp(nil(p)): their joint centralizer is still a
    # Levi of p, but no longer inside q
    u = g.exp_ad(p.nilradical.vectors()[0])
    return tuple(u.mulvec(x) for x in lifts)


def moved_in_q(g, p, q, lifts):
    return moved_in_p(g, q, p, lifts)


@pytest.mark.parametrize("mutate", [grown, moved_in_p, moved_in_q])
def test_delta_parabolic_rejects_a_common_levi_off_the_nilradical(
        mutate, monkeypatch):
    g = gl(3)
    ss = standard_simple_system(g)
    pc = opposite(ss.chamber, ss.xi)
    real = building.common_levi

    def mutated(p, q):
        # the mutated lifts with their joint centralizer, past
        # common_levi's own checks: delta's has_levi checks must fire
        xi_p, xi_q = mutate(g, p, q, real(p, q)[1:])
        return (g.centralizer_element(xi_p).intersect(
            g.centralizer_element(xi_q)), xi_p, xi_q)

    monkeypatch.setattr(building, "common_levi", mutated)
    with pytest.raises(InternalCheckError, match="not a complement"):
        delta_parabolic(ss.chamber, pc, ss)


def dense_conjugate(ss, p):
    """p moved by exp(ad x), x the sum of the opposite Borel's nilradical
    basis."""
    g = ss.rd.ambient
    nil = opposite(ss.chamber, ss.xi).nilradical
    u = g.exp_ad(lincomb([1] * nil.dim, nil.vectors(), g.dim))
    return conjugate_parabolic(p, u)


@pytest.mark.parametrize("p,q,word", [
    (3, 1, (0,)), (4, 2, (0, 1, 0, 1)), (5, 2, (0, 1, 0, 1)), (3, 3, 6)],
    ids=["so31", "so42", "so52", "so33"])
def test_delta_parabolic_non_split(p, q, word):
    # from the base chamber to its opposite: the longest word of the
    # restricted Weyl group (so(3,3) ≅ sl(4) is split, of type A₃, and
    # its longest word has length 6); ml is larger than a iff p − q > 1
    g = so(p, q)
    ss = standard_simple_system(g)
    assert (ss.rd.levi == ss.rd.cartan) == (p - q <= 1)
    lower = opposite(ss.chamber, ss.xi)
    w = delta_parabolic(ss.chamber, lower, ss)
    assert w == word if isinstance(word, tuple) else len(w) == word
    # the longest word is an involution
    assert delta_parabolic(lower, ss.chamber, ss) == w
    if (p, q) == (4, 2):
        # conjugation invariance, with both chambers moved densely
        pb, pc = (dense_conjugate(ss, x) for x in (ss.chamber, lower))
        assert delta_parabolic(pb, pc, ss) == w


def triangle():
    # points 1..3, lines 4..6; line i+3 omits point i
    types = {1: "p", 2: "p", 3: "p", 4: "l", 5: "l", 6: "l"}
    edges = [
        (1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5),
    ]
    return IncidenceSystem(types, edges)


def test_incidence_basics():
    gamma = triangle()
    assert gamma.type_set() == {"p", "l"}
    assert sorted(gamma.elements_of_type("p")) == [1, 2, 3]
    assert gamma.incident(1, 5) and not gamma.incident(1, 4)
    assert sorted(gamma.neighbors(1)) == [5, 6]


def test_incidence_rejects_same_type_edge():
    with pytest.raises(DomainError):
        IncidenceSystem({1: "p", 2: "p"}, [(1, 2)])


def test_flags_and_chambers():
    gamma = triangle()
    assert len(flags(gamma, {"p"})) == 3
    ff = full_flags(gamma)
    assert len(ff) == 6  # 3 points x 2 lines each
    cs = chambers_from_incidence(gamma)
    assert len(cs.chambers) == 6
    assert cs.is_connected()
    for label in cs.labels():
        for part in cs.panels[label]:
            assert len(part) == 2


def test_coresidues_recover_triangle():
    gamma = triangle()
    cs = chambers_from_incidence(gamma)
    back = coresidues(cs)
    assert len(back.elements()) == len(gamma.elements())
    assert is_residually_connected(gamma)
    assert ec_reconstruction_isomorphic(gamma)


def test_residually_disconnected():
    # the flags through x are {x, b1, c1} and {x, b2, c2}; no gallery
    # of b- and c-panels joins them
    gamma = IncidenceSystem(
        {"x": "a", "b1": "b", "b2": "b", "c1": "c", "c2": "c"},
        [("x", "b1"), ("x", "b2"), ("x", "c1"), ("x", "c2"),
         ("b1", "c1"), ("b2", "c2")])
    assert not is_residually_connected(gamma)


def test_components():
    panels = {0: [{"a", "b"}, {"c"}, {"d", "e"}, {"f"}],
              1: [{"a"}, {"b"}, {"c"}, {"d"}, {"e", "f"}]}
    cs = ChamberSystem("abcdef", panels)
    assert cs.components() == [{"a", "b"}, {"c"}, {"d", "e", "f"}]
    assert not cs.is_connected()
    # skipping a label leaves the panels of the others
    assert cs.components(skip=1) == [{"a", "b"}, {"c"}, {"d", "e"}, {"f"}]
    assert cs.components(skip=0) == [{"a"}, {"b"}, {"c"}, {"d"}, {"e", "f"}]
    # listed by first chamber
    assert ChamberSystem("fedcba", panels).components() == [
        {"d", "e", "f"}, {"c"}, {"a", "b"}]
    assert ChamberSystem(["a"], {0: [{"a"}]}).is_connected()


def test_subset_models():
    gamma = incidence_model_subsets(2)
    # proper nonempty subsets of a 3-set
    assert len(gamma.elements()) == 6
    assert ec_reconstruction_isomorphic(gamma)
    adm = incidence_model_admissible(2)
    assert len(adm.elements()) == 8
    assert len(adm.edges) == 8


def test_subset_model_edges_n2():
    gamma = incidence_model_subsets(2)
    assert len(gamma.edges) == 6


def test_chamber_system_validation():
    with pytest.raises(DomainError):
        ChamberSystem(["a", "b"], {0: [frozenset(["a"])]})


def test_to_dot_runs():
    out = to_dot(triangle())
    assert out.startswith("graph")
    assert '"1" -- "5";' in out and 'type="l"' in out
