from fractions import Fraction as Q

import pytest

from liepar import parabolic, rootdata
from liepar.catalog import (
    all_standard_parabolics,
    gl,
    so,
    standard_borel,
    standard_minimal_levi,
    standard_simple_system,
)
from liepar.errors import DomainError, InternalCheckError
from liepar.parabolic import (
    conjugate_parabolic,
    grading_lift,
    opposite,
    project,
)
from liepar.ratmat import (
    Matrix,
    lincomb,
    solve,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from liepar.rootdata import (
    _descend,
    duality_involution,
    parabolic_from_subset,
    quotient_simple_system,
    root_decomposition,
    root_reflection,
    simple_system,
    standardize_type,
    type_of,
    type_of_any,
    weyl_word,
)


def rd_of(g):
    levi, rd = standard_minimal_levi(g)
    return rd


def test_gl3_root_decomposition():
    g = gl(3)
    rd = rd_of(g)
    assert len(rd.roots) == 6
    assert all(rd.root_spaces[a].dim == 1 for a in rd.roots)
    assert rd.levi.dim == 3
    assert rd.levi.dim + sum(
        rd.root_spaces[a].dim for a in rd.roots
    ) == g.dim
    for a in rd.roots:
        assert tuple(-c for c in a) in rd.root_spaces
        assert rd.pairing(a, a) == 2
        for b in rd.roots:
            assert rd.pairing(b, a).denominator == 1


def test_gl3_simple_system():
    g = gl(3)
    ss = standard_simple_system(g)
    assert ss.simples == ((-1, 1, 0), (0, -1, 1))
    assert len(ss.positive_roots()) == 3
    # adjacent simples pair to -1 in type A
    a, b = ss.simples
    assert ss.rd.pairing(a, b) == -1 and ss.rd.pairing(b, a) == -1


def test_so32_root_decomposition():
    g = so(3, 2)
    rd = rd_of(g)
    assert len(rd.roots) == 8
    assert rd.levi.dim == 2
    assert rd.levi.dim + len(rd.roots) == g.dim
    ss = standard_simple_system(g)
    a, b = ss.simples
    pair = {rd.pairing(a, b), rd.pairing(b, a)}
    assert pair == {Q(-1), Q(-2)}  # type B_2


def test_so43_short_roots():
    g = so(4, 3)
    rd = rd_of(g)
    assert len(rd.roots) == 18
    short = [a for a in rd.roots if sum(c * c for c in a) == 1]
    assert len(short) == 6
    assert all(rd.root_spaces[a].dim == 1 for a in rd.roots)


def test_parabolic_from_subset_extremes():
    g = gl(3)
    ss = standard_simple_system(g)
    assert parabolic_from_subset(ss, set()).space == g.full_space()
    borel = parabolic_from_subset(ss, set(ss.simples))
    assert borel.space == ss.chamber.space
    assert borel.space == standard_borel(g).space


def test_type_of():
    g = gl(3)
    ss = standard_simple_system(g)
    for a in ss.simples:
        q = parabolic_from_subset(ss, {a})
        assert type_of(ss, q) == frozenset({a})
    with pytest.raises(DomainError):
        type_of(ss, opposite(ss.chamber))


def test_root_reflection_gl3():
    g = gl(3)
    rd = rd_of(g)
    alpha = (-1, 1, 0)  # e2 - e1 direction in coordinate form
    auto, perm = root_reflection(rd, alpha)
    assert perm[alpha] == (1, -1, 0)
    # the reflection swaps the two other positive roots
    assert perm[(-1, 0, 1)] == (0, -1, 1)
    assert perm[(0, -1, 1)] == (-1, 0, 1)
    # involutive as a root permutation
    assert all(perm[perm[b]] == b for b in rd.roots)


def test_weyl_word_lengths():
    g = gl(3)
    ss = standard_simple_system(g)
    assert list(weyl_word(ss, ss.chamber)) == []
    w = weyl_word(ss, opposite(ss.chamber))
    assert len(w) == 3  # longest element of S_3
    g2 = so(3, 2)
    ss2 = standard_simple_system(g2)
    assert len(weyl_word(ss2, opposite(ss2.chamber))) == 4


def test_standardize_type_on_conjugate():
    g = gl(3)
    ss = standard_simple_system(g)
    q = parabolic_from_subset(ss, {ss.simples[0]})
    hat = opposite(q, q.grading_element)
    # the opposite is the nonpositive part of -ξ, which lies in ml
    minus_xi = vec_scale(-1, q.grading_element)
    assert ss.rd.span_of(a for a in ss.rd.roots
                         if ss.rd.eval_root(a, minus_xi) <= 0) == hat.space
    t = standardize_type(ss, minus_xi, hat.dim)
    assert t == frozenset({ss.simples[1]})
    with pytest.raises(InternalCheckError, match="wrong dimension"):
        standardize_type(ss, minus_xi, hat.dim + 1)


def test_type_of_any_matches_type_of():
    g = gl(3)
    ss = standard_simple_system(g)
    for a in ss.simples:
        q = parabolic_from_subset(ss, {a})
        assert type_of_any(ss, q) == frozenset({a})
    # conjugation preserves the type
    x = (Q(0),) * g.dim
    x = tuple(
        Q(1) if i == g.dim - 2 else c for i, c in enumerate(x)
    )
    for a in ss.simples:
        q = parabolic_from_subset(ss, {a})
        nilvecs = opposite(ss.chamber).nilradical.vectors()
        pc = conjugate_parabolic(q, g.exp_ad(nilvecs[0]))
        assert type_of_any(ss, pc) == frozenset({a})


def reference_transport(ss, l_from, l_to):
    """u ∈ exp(ad nil(pb)) with u·l_from = l_to, for two Levis of the
    base chamber pb, from two grading lifts of pb and an iterative
    solve, as the transport was computed before."""
    g = ss.rd.ambient
    pb = ss.chamber
    xi_from, _ = grading_lift(pb, l_from)
    xi_to, _ = grading_lift(pb, l_to)
    # the two lifts may differ by a central element; drop it
    nb, zb = pb.nilradical.vectors(), g.center().vectors()
    if zb:
        res = solve(Matrix(nb + zb).transpose(), vec_sub(xi_to, xi_from))
        xi_to = vec_sub(xi_to, lincomb(res[0][len(nb):], zb, g.dim))
    u = Matrix.identity(g.dim)
    cur = xi_from
    for _ in range(g.dim):
        r = vec_sub(xi_to, cur)
        if vec_is_zero(r):
            break
        res = solve(Matrix([g.bracket(b, cur) for b in nb]).transpose(), r)
        u = g.exp_ad(lincomb(res[0], nb, g.dim)) * u
        cur = u.mulvec(xi_from)
    assert vec_is_zero(vec_sub(xi_to, cur))
    return u


def reference_type(ss, p, l):
    """The type as the transport computed it before, for l the common
    Levi of p and the base chamber pb: the reference transport u with
    u·l = ml applied to p; then the root set of u·p, descended."""
    u = reference_transport(ss, l, ss.rd.levi)
    _, S = _descend(ss, ss.rd.root_set_of(ss.rd.ambient.apply_auto(
        u, p.space)))
    assert ss.negative_roots() <= S
    return frozenset(a for a in ss.simples if a not in S)


@pytest.mark.parametrize("make", [lambda: gl(3), lambda: so(3, 2),
                                  lambda: gl(4), lambda: so(3, 3)],
                         ids=["gl3", "so32", "gl4", "so33"])
def test_type_of_any_matches_the_reference_transport(make, monkeypatch):
    g = make()
    ss = standard_simple_system(g)
    rd = ss.rd
    # the reference takes the common Levi type_of_any computed; and
    # type_of_any lifts only the base chamber and p, once each, because
    # the lift of p that common_levi makes inside l is the one moved
    # into ml
    levis, lifted = [], []
    real_levi, real_lift = rootdata.common_levi, parabolic.grading_lift

    def recording(p, q):
        result = real_levi(p, q)
        levis.append(result[0])
        return result

    def lifting(*args):
        lifted.append(args[0])
        return real_lift(*args)

    monkeypatch.setattr(rootdata, "common_levi", recording)
    monkeypatch.setattr(parabolic, "grading_lift", lifting)
    monkeypatch.setattr(rootdata, "grading_lift", lifting)
    # a principal nilpotent of the opposite Borel (the chamber holds
    # the negative roots): it moves every proper standard parabolic
    x = lincomb([1] * len(ss.simples),
                [rd.root_spaces[a].vectors()[0] for a in ss.simples], g.dim)
    u = g.exp_ad(x)
    for J, q in all_standard_parabolics(g).items():
        conj = conjugate_parabolic(q, u)
        for p in (q, conj):
            lifted.clear()
            t = type_of_any(ss, p)
            assert lifted == [ss.chamber, p]
            assert t == reference_type(ss, p, levis[-1]) == J
        if J:
            assert not conj.space.contains(rd.levi)


def test_duality_involution():
    g = gl(3)
    ss = standard_simple_system(g)
    op = duality_involution(ss)
    a, b = ss.simples
    assert op == {a: b, b: a}
    g2 = so(3, 2)
    ss2 = standard_simple_system(g2)
    op2 = duality_involution(ss2)
    assert op2 == {s: s for s in ss2.simples}
    # so(3,3) ≅ sl(4): D₃ = A₃, whose duality swaps the end nodes
    # e₂ − e₃, e₂ + e₃ and fixes the middle one, e₁ − e₂
    ss3 = standard_simple_system(so(3, 3))
    e12, e23, e2p3 = ((Q(1), Q(-1), Q(0)), (Q(0), Q(1), Q(-1)),
                      (Q(0), Q(1), Q(1)))
    assert set(ss3.simples) == {e12, e23, e2p3}
    assert duality_involution(ss3) == {e12: e12, e23: e2p3, e2p3: e23}


def test_root_decomposition_rejects_non_toral():
    g = gl(2)
    import liepar.catalog as cat

    nil = cat.standard_borel(g).nilradical
    # ad e has the one eigenvalue 0 and is not diagonalizable: no list
    # of candidates fills g
    with pytest.raises(InternalCheckError, match="does not fill"):
        root_decomposition(g, nil, [(k,) for k in range(-2, 3)])
    with pytest.raises(DomainError, match="not abelian"):
        root_decomposition(g, nil.sum(opposite(cat.standard_borel(g))
                                      .nilradical), [])


def transported(rd, u):
    """u·a and {α ∘ u⁻¹ on u·a's canonical basis: α} over the roots α
    of a, the oracle for the root datum of u·a."""
    a_u = rd.ambient.apply_auto(u, rd.cartan)
    pre = [solve(u, h)[0] for h in a_u.vectors()]
    return a_u, {tuple(rd.eval_root(a, x) for x in pre): a
                 for a in rd.roots}


def dense_conjugator(ss):
    """exp(ad x) for x the sum of the opposite Borel's nilradical basis."""
    g = ss.rd.ambient
    nil = opposite(ss.chamber, ss.xi).nilradical
    return g.exp_ad(lincomb([1] * nil.dim, nil.vectors(), g.dim))


@pytest.mark.parametrize("make", [lambda: gl(3), lambda: so(3, 2)],
                         ids=["gl3", "so32"])
def test_root_decomposition_at_transported_candidates(make):
    g = make()
    base = standard_simple_system(g)
    rd = base.rd
    u = dense_conjugator(base)
    a_u, roots = transported(rd, u)
    moved = root_decomposition(g, a_u, roots)
    # the root spaces and coroots are those of a, moved by u
    assert moved.levi == g.apply_auto(u, rd.levi)
    assert set(moved.roots) == set(roots)
    for beta, alpha in roots.items():
        assert moved.root_spaces[beta] == g.apply_auto(
            u, rd.root_spaces[alpha])
        assert moved.coroots[beta] == u.mulvec(rd.coroots[alpha])
    # one candidate short, and the kernels no longer fill g
    with pytest.raises(InternalCheckError, match="does not fill"):
        root_decomposition(g, a_u, sorted(roots)[1:])


def conjugated_system(ss, u):
    """The simple system of u·chamber over the root datum of u·a."""
    g = ss.rd.ambient
    a_u, roots = transported(ss.rd, u)
    rd = root_decomposition(g, a_u, roots)
    return simple_system(rd, conjugate_parabolic(ss.chamber, u))


def same_system(a, b):
    return (a.chamber == b.chamber and a.rd.cartan == b.rd.cartan
            and a.rd.levi == b.rd.levi and a.rd.roots == b.rd.roots
            and a.rd.root_spaces == b.rd.root_spaces
            and a.rd.coroots == b.rd.coroots and a.simples == b.simples
            and a.levels == b.levels and a.xi == b.xi
            and a.fundamental_coweights == b.fundamental_coweights
            and a.fundamental_weights == b.fundamental_weights)


def reference_quotient(base, q, l):
    """ss0 and ι as the local root datum gave them, for q's common
    Levi l with the base chamber pb: over v·a, for v the reference
    transport of ml onto l, the simple system of q's chamber C, the
    projection of pb; the quotient's roots read on the image of v·a;
    each quotient simple matched to the local simple whose root space
    projects onto its own, and labelled by type_of_any of the maximal
    parabolic that this local simple alone crosses."""
    g, rd = q.ambient, base.rd
    lq = q.levi_quotient()
    chamber, pb0 = project(q, base.chamber)
    a_v, roots = transported(rd, reference_transport(base, rd.levi, l))
    local = simple_system(root_decomposition(g, a_v, roots), chamber)
    a0 = lq.project_space(a_v)
    av = a_v.vectors()
    onto = Matrix([lq.project_vector(h) for h in av]).transpose()
    pre = [lincomb(solve(onto, b)[0], av, g.dim) for b in a0.vectors()]
    rd0 = root_decomposition(lq.algebra, a0, [
        tuple(local.rd.eval_root(a, h) for h in pre) for a in local.rd.roots])
    ss0 = simple_system(rd0, pb0)
    iota = {}
    for b in ss0.simples:
        (beta,) = [a for a in local.simples
                   if q.space.contains(local.rd.root_spaces[a])
                   and lq.project_space(local.rd.root_spaces[a])
                   == rd0.root_spaces[b]]
        (iota[b],) = type_of_any(base, parabolic_from_subset(local, {beta}))
    return ss0, iota


@pytest.mark.parametrize("make", [lambda: gl(3), lambda: so(3, 2),
                                  lambda: so(3, 1), lambda: so(4, 2),
                                  lambda: so(5, 2)],
                         ids=["gl3", "so32", "so31", "so42", "so52"])
def test_quotient_simple_system_labels_as_type_of_any(make, monkeypatch):
    g = make()
    base = standard_simple_system(g)
    rd = base.rd
    # the dense conjugate of a maximal standard center: it leaves the
    # standard apartment (every conjugated center is run in test_config)
    centers = [conjugate_parabolic(parabolic_from_subset(
        base, {base.simples[0]}), dense_conjugator(base))]
    assert not centers[0].space.contains(rd.levi)
    if rd.levi == rd.cartan:
        pos = sorted(base.positive_roots())
        neg = sorted(base.negative_roots())
        e, e2 = (rd.root_spaces[a].vectors()[0] for a in (pos[0], pos[-1]))
        f = rd.root_spaces[neg[0]].vectors()[0]
        systems = [
            base,
            simple_system(rd, opposite(base.chamber, base.xi)),
            conjugated_system(base, g.exp_ad(e)),
            conjugated_system(base, g.exp_ad(f) * g.exp_ad(e)),
            # e - e2 lies in the nilradical of the opposite chamber
            conjugated_system(base, g.exp_ad(lincomb((1, -1), (e, e2),
                                                     g.dim))),
        ]
        centers += [parabolic_from_subset(ss, {a}) for ss in systems
                    for a in ss.simples]
    # the reference takes the common Levi the function found, ml for a
    # standard center
    found = {}
    real_levi = rootdata.common_levi

    def levi(p, q):
        found["l"], xi_p, xi_q = real_levi(p, q)
        return found["l"], xi_p, xi_q

    monkeypatch.setattr(rootdata, "common_levi", levi)
    for q in centers:
        found["l"] = rd.levi
        ss0, iota = quotient_simple_system(base, q)
        want_ss0, want_iota = reference_quotient(base, q, found["l"])
        assert same_system(ss0, want_ss0)
        assert iota == want_iota


def test_quotient_simple_system_of_a_standard_center_lifts_nothing(
        monkeypatch):
    lifted = []
    real_lift = parabolic.grading_lift

    def lifting(*args):
        lifted.append(args[0])
        return real_lift(*args)

    def no_levi(*args):
        raise AssertionError("common Levi formed for a standard center")

    monkeypatch.setattr(rootdata, "common_levi", no_levi)
    monkeypatch.setattr(parabolic, "grading_lift", lifting)
    monkeypatch.setattr(rootdata, "grading_lift", lifting)
    for g in (gl(3), so(4, 2)):
        base = standard_simple_system(g)
        for J, q in all_standard_parabolics(g).items():
            lifted.clear()
            ss0, iota = quotient_simple_system(base, q)
            # the one lift is simple_system's, of the quotient's chamber
            assert lifted == [ss0.chamber]
            assert set(iota.values()) == set(base.simples) - J


def test_quotient_simple_system_checks_its_levi(monkeypatch):
    g = gl(3)
    base = standard_simple_system(g)
    q = conjugate_parabolic(parabolic_from_subset(base, {base.simples[0]}),
                            dense_conjugator(base))
    real = rootdata.common_levi
    # u·a, for u = exp(ad e) with e outside pb₀, leaves the base chamber
    e = base.rd.root_spaces[base.simples[0]].vectors()[0]
    for levi, message in [(g.center(), "wrong dimension"),
                          (g.apply_auto(g.exp_ad(e), base.rd.levi),
                           "not a complement")]:
        def mutated(p, pb):
            return (levi,) + real(p, pb)[1:]

        monkeypatch.setattr(rootdata, "common_levi", mutated)
        with pytest.raises(InternalCheckError, match=message):
            quotient_simple_system(base, q)
