from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepar.catalog import (
    all_standard_parabolics,
    element_from_matrix,
    gl,
    so,
    standard_borel,
)
from liepar.errors import DomainError, InternalCheckError
from liepar.liealg import (
    Filtration,
    LieAlgebra,
    _check_compatibility,
    minimal_polynomial,
)
from liepar.parabolic import conjugate_parabolic, make_parabolic, opposite
from liepar.ratmat import Matrix, Subspace, lincomb


def E(n, i, j):
    rows = [[Q(0)] * n for _ in range(n)]
    rows[i][j] = Q(1)
    return Matrix(rows)


def coords(g, m):
    return element_from_matrix(g, m)


def span(g, mats):
    return Subspace.from_vectors(g.dim, [coords(g, m) for m in mats])


def test_bracket_gl2():
    g = gl(2)
    x = coords(g, E(2, 0, 0))
    y = coords(g, E(2, 0, 1))
    assert g.bracket(x, y) == coords(g, E(2, 0, 1))
    assert all(c == 0 for c in g.bracket(y, y))


def test_bracket_spaces_cartan():
    g = gl(2)
    cartan = span(g, [E(2, 0, 0), E(2, 1, 1)])
    br = g.bracket_spaces(cartan, g.full_space())
    assert br == span(g, [E(2, 0, 1), E(2, 1, 0)])


def test_normalizer_centralizer_transporter():
    g = gl(2)
    borel = span(g, [E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)])
    assert g.normalizer(borel) == borel
    scalars = span(g, [E(2, 0, 0) + E(2, 1, 1)])
    assert g.center() == scalars
    assert g.transporter(g.zero_space(), g.zero_space()) == g.full_space()


def test_lower_central_series():
    g3 = gl(3)
    strict = span(g3, [E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    series = g3.lower_central_series(strict)
    assert [s.dim for s in series] == [3, 1, 0]
    g = gl(2)
    cartan = span(g, [E(2, 0, 0), E(2, 1, 1)])
    assert g.lower_central_series(cartan)[-1].dim == 0  # abelian
    assert g.lower_central_series(g.zero_space()) == [g.zero_space()]
    sl2 = span(g, [E(2, 0, 1), E(2, 1, 0), E(2, 0, 0) - E(2, 1, 1)])
    assert g.lower_central_series(sl2) == [sl2]  # perfect
    # [e, f] = h leaves the span of e and f
    with pytest.raises(DomainError, match="not a subalgebra"):
        g.lower_central_series(span(g, [E(2, 0, 1), E(2, 1, 0)]))


def test_induced_filtration_gl2():
    g = gl(2)
    n = span(g, [E(2, 0, 1)])
    borel = span(g, [E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)])
    f = make_parabolic(g, borel).filtration
    assert f.level(-2).dim == 0
    assert f.level(-1) == n
    assert f.level(0) == borel
    assert f.level(1) == g.full_space()


def test_induced_filtration_gl3_borel():
    g = gl(3)
    f = standard_borel(g).filtration
    idx = f.indices()
    assert min(idx) == -3 and max(idx) == 2
    dims = [f.level(k).dim for k in range(-3, 3)]
    assert dims == [0, 1, 3, 6, 8, 9]
    assert f.level(5) == g.full_space()


def test_filtration_rejects_bad_input():
    g = gl(2)
    sl2 = span(g, [E(2, 0, 1), E(2, 1, 0), E(2, 0, 0) - E(2, 1, 1)])
    # only a recognized parabolic has a filtration, and sl(2) is none
    with pytest.raises(DomainError):
        make_parabolic(g, sl2)
    n = span(g, [E(2, 0, 1)])
    with pytest.raises(DomainError, match="not contiguous"):
        Filtration({-1: n, 1: g.full_space()})
    with pytest.raises(DomainError, match="not monotone"):
        Filtration({-1: sl2, 0: n})


def pairwise_failures(g, f):
    """The full pairwise form of the compatibility check, kept as the
    oracle: every ordered (i, j) with [f^i, f^j] not in f^(i+j)."""
    return {
        (i, j) for i in f.indices() for j in f.indices()
        if not f.level(i + j).contains(g.bracket_spaces(f.level(i),
                                                        f.level(j)))
    }


def named_pair(g, f):
    """(i, j) named by the compatibility check, or None if it passes."""
    try:
        _check_compatibility(g, f)
    except InternalCheckError as exc:
        head = str(exc).split("(i, j) = (")[1].split(")")[0]
        return tuple(int(k) for k in head.split(", "))
    return None


def conjugated_filtration(spec, k, coeffs):
    """Filtration of the k-th proper standard parabolic of spec
    conjugated by exp(ad x), x in the opposite Borel's nilradical with
    coefficients coeffs (cycled)."""
    g = gl(3) if spec == "gl3" else so(3, 2)
    std = all_standard_parabolics(g)
    proper = [std[J] for J in sorted(std, key=sorted) if std[J].dim < g.dim]
    p = proper[k % len(proper)]
    nil = opposite(standard_borel(g)).nilradical
    cs = [coeffs[r % len(coeffs)] for r in range(nil.dim)]
    x = lincomb(cs, nil.vectors(), g.dim)
    return g, conjugate_parabolic(p, g.exp_ad(x)).filtration


@given(
    st.sampled_from(["gl3", "so32"]),
    st.integers(0, 2),
    st.lists(st.integers(-2, 2), min_size=1, max_size=4),
    st.integers(0, 6),
    st.lists(st.integers(-2, 2), min_size=1, max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_compatibility_check_agrees_with_pairwise_oracle(spec, k, coeffs,
                                                          at, mix):
    g, f = conjugated_filtration(spec, k, coeffs)
    # an induced filtration passed the check when it was built
    assert pairwise_failures(g, f) == set()
    assert named_pair(g, f) is None
    # mutant: one inner level replaced by a subspace between its
    # neighbours, f^(m-1) + span of combinations of f^(m+1)'s basis
    inner = list(f.indices())[1:-1]
    m = inner[at % len(inner)]
    above = f.level(m + 1).vectors()
    extra = [
        lincomb([mix[(r + s) % len(mix)] for r in range(len(above))],
                above, g.dim)
        for s in range(len(mix))
    ]
    levels = {i: f.level(i) for i in f.indices()}
    levels[m] = Subspace.from_vectors(
        g.dim, list(f.level(m - 1).vectors()) + extra)
    mutant = Filtration(levels)
    failures = pairwise_failures(g, mutant)
    pair = named_pair(g, mutant)
    # the check names the first failing pair i ≤ j, in the order of i
    # then j
    assert pair == min((p for p in failures if p[0] <= p[1]), default=None)


@pytest.mark.parametrize("m, extra, pair, dims", [
    # f^-1 cut down to <E13, E12>: [E13, E21] = -E23 is not in f^-1
    (-1, [(0, 1)], (-2, 1), (1, 8, 2)),
    # f^1 cut down to f^0: [E12, E21] = E11 - E22 is in f^0, but
    # [E12, E31] = -E32 is not
    (1, [], (-1, 2), (3, 9, 6)),
], ids=["f^-1", "f^1"])
def test_compatibility_check_names_the_failing_pair(m, extra, pair, dims):
    # gl(3) Borel filtration (dims 0, 1, 3, 6, 8, 9 at -3..2) with f^m
    # replaced by f^(m-1) + <extra>; the one failing unordered pair has
    # i ≠ j
    g = gl(3)
    f = standard_borel(g).filtration
    levels = {i: f.level(i) for i in f.indices()}
    levels[m] = f.level(m - 1).sum(span(g, [E(3, a, b) for a, b in extra]))
    mutant = Filtration(levels)
    assert pairwise_failures(g, mutant) == {pair, pair[::-1]}
    with pytest.raises(InternalCheckError) as exc:
        _check_compatibility(g, mutant)
    assert str(exc.value) == (
        "filtration compatibility fails at (i, j) = (%d, %d): [f^i, f^j]"
        " not in f^(i+j); dim f^i = %d, dim f^j = %d, dim f^(i+j) = %d"
        % (pair + dims)
    )


def check_adapted(f):
    """W_min spans f^min, and W_j ⊕ f^(j-1) = f^j above it."""
    w = f.adapted_basis()
    assert sorted(w) == list(f.indices())
    assert w[f.min_index] == f.level(f.min_index)
    for j in f.indices()[1:]:
        below = f.level(j - 1)
        assert w[j].intersect(below).dim == 0
        assert w[j].sum(below) == f.level(j)
    # built once
    assert f.adapted_basis() is w


def reference_levels(g, n, p):
    """Levels built from n and p alone, as the filtration once was: f^-1
    = n, f^0 = p, then [n, f^k] below and c_g(n, f^k) above, each until
    a level repeats."""
    levels = {-1: n, 0: p}
    for k, step in ((-1, -1), (0, 1)):
        while True:
            nxt = (g.bracket_spaces(n, levels[k]) if step < 0
                   else g.transporter(n, levels[k]))
            if nxt == levels[k]:
                break
            levels[k + step] = nxt
            k += step
    return levels


@pytest.mark.parametrize("build, args", [(gl, (3,)), (so, (3, 2)),
                                         (gl, (4,))],
                         ids=["gl3", "so32", "gl4"])
def test_adapted_basis_of_standard_parabolics(build, args):
    # every standard parabolic and one exp(ad x) conjugate of each, x
    # spanning the last nonzero term of the opposite Borel's nilradical
    # series: a lowest root space, in no proper standard parabolic, so
    # every proper one moves; the levels from the recognizer's series
    # are the reference's
    g = build(*args)
    (x,) = opposite(standard_borel(g)).series[-2].vectors()
    a = g.exp_ad(x)
    for p in all_standard_parabolics(g).values():
        for pd in (p, conjugate_parabolic(p, a)):
            check_adapted(pd.filtration)
            assert pd.filtration.levels == reference_levels(
                g, pd.nilradical, pd.space)
            assert pd.filtration.level(pd.filtration.min_index).dim == 0


def test_adapted_basis_with_nonzero_bottom_level():
    # f^-1 = strictly upper, f^0 = upper triangular, f^1 = gl(3)
    g = gl(3)
    upper = span(g, [E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    borel = upper.sum(span(g, [E(3, i, i) for i in range(3)]))
    f = Filtration({-1: upper, 0: borel, 1: g.full_space()})
    assert f.level(f.min_index).dim == 3
    check_adapted(f)
    assert [f.adapted_basis()[j].dim for j in f.indices()] == [3, 3, 3]


def test_compatibility_check_brackets_each_adapted_pair_once(monkeypatch):
    # gl(4) Borel: the check spans no bracket space and makes at most
    # one bracket per unordered pair of adapted basis vectors
    g = gl(4)
    f = standard_borel(g).filtration
    calls = {"bracket": 0, "bracket_spaces": 0}

    def counted(name):
        orig = getattr(LieAlgebra, name)

        def wrapper(*args):
            calls[name] += 1
            return orig(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(LieAlgebra, name, counted(name))
    _check_compatibility(g, Filtration(f.levels))
    assert calls["bracket_spaces"] == 0
    assert 0 < calls["bracket"] <= g.dim * (g.dim + 1) // 2


def test_nilpotent_cone():
    g = gl(2)
    assert g.in_nilpotent_cone(coords(g, E(2, 0, 1)))
    ident = coords(g, E(2, 0, 0) + E(2, 1, 1))
    assert not g.in_nilpotent_cone(ident)
    h = coords(g, E(2, 0, 0) - E(2, 1, 1))
    assert not g.in_nilpotent_cone(h)  # in [g,g] but semisimple


def assert_minimal_polynomial(m, mp):
    # the definition: monic, mp(m) = 0, and I, m, ..., m^(deg-1) are
    # linearly independent
    n = m.rows
    powers = [Matrix.identity(n)]
    for _ in range(len(mp) - 1):
        powers.append(powers[-1] * m)
    flat = [tuple(x for r in pw.data for x in r) for pw in powers]
    assert mp[-1] == 1
    assert not any(lincomb(mp, flat, n * n))
    assert Matrix(flat[:-1]).rank() == len(mp) - 1


def test_minimal_polynomial():
    g = gl(2)
    ad = g.ad(coords(g, E(2, 0, 1)))
    assert minimal_polynomial(ad) == [Q(0), Q(0), Q(0), Q(1)]  # t^3
    g = gl(3)
    # principal nilpotent: ad has nilpotency 2·3 - 1
    principal = g.ad(coords(g, E(3, 0, 1) + E(3, 1, 2)))
    assert minimal_polynomial(principal) == [Q(0)] * 5 + [Q(1)]
    # E11 + E23 is not semisimple: t^3 (t^2 - 1)^2
    mixed = g.ad(coords(g, E(3, 0, 0) + E(3, 1, 2)))
    assert minimal_polynomial(mixed) == [0, 0, 0, 1, 0, -2, 0, 1]
    # a rotation of so(3,1) has eigenvalues 0, ±i: t^3 + t
    g31 = so(3, 1)
    rotation = g31.ad(g31.basis_element(g31.labels.index("X[3,4]")))
    assert minimal_polynomial(rotation) == [0, 1, 0, 1]
    # a Cartan element of so(3,2) with root values 0, ±1, ..., ±4,
    # conjugated by exp(ad x)
    g32 = so(3, 2)
    h1, h2 = E(5, 0, 0) - E(5, 1, 1), E(5, 2, 2) - E(5, 3, 3)
    h = coords(g32, h1 + h2.scale(3))
    nil = standard_borel(g32).nilradical
    x = lincomb([Q(1)] * nil.dim, nil.vectors(), g32.dim)
    conj = g32.ad(g32.exp_ad(x).mulvec(h))
    # ad of the conjugate is semisimple with those nine eigenvalues, so
    # its minimal polynomial is the product of t − k over them
    prod = [Q(1)]
    for k in range(-4, 5):
        prod = [a - k * b for a, b in zip([Q(0)] + prod, prod + [Q(0)])]
    assert minimal_polynomial(conj) == prod
    for m in (ad, principal, mixed, rotation, conj):
        assert_minimal_polynomial(m, minimal_polynomial(m))
    assert minimal_polynomial(Matrix.identity(0)) == [1]
    assert minimal_polynomial(Matrix.zero(3, 3)) == [0, 1]


def test_is_reductive():
    assert gl(2).is_reductive() is True
    assert gl(3).is_reductive() is True
    # 2-dim nonabelian [e1,e2] = e2 through its ad realization: the
    # trace form is degenerate, so the test is inconclusive
    a1 = Matrix([[0, 0], [0, -1]])
    a2 = Matrix([[0, 0], [1, 0]])
    g2 = LieAlgebra.from_matrices([a1, a2])
    assert g2.is_reductive() is None


def test_exp_ad():
    g = gl(2)
    zero = (Q(0),) * g.dim
    assert g.exp_ad(zero) == Matrix.identity(g.dim)
    x = coords(g, E(2, 0, 1))
    a = g.exp_ad(x)
    g.check_automorphism(a)
    with pytest.raises(InternalCheckError, match="not an automorphism"):
        g.check_automorphism(Matrix.identity(g.dim).scale(2))
    assert a * g.exp_ad(tuple(-c for c in x)) == Matrix.identity(g.dim)
    # compare against conjugation by I + E12 in the realization
    u = Matrix.identity(2) + E(2, 0, 1)
    uinv = Matrix.identity(2) - E(2, 0, 1)
    for m in [E(2, 0, 0), E(2, 1, 0), E(2, 1, 1)]:
        want = coords(g, u * m * uinv)
        got = a.mulvec(coords(g, m))
        assert tuple(want) == tuple(got)
    # ad of the principal nilpotent X of gl(3) has nilpotency 5, so the
    # series has four terms past I; exp(X) = I + X + X²/2
    g = gl(3)
    x = E(3, 0, 1) + E(3, 1, 2)
    a = g.exp_ad(coords(g, x))
    u = Matrix.identity(3) + x + (x * x).scale(Q(1, 2))
    uinv = Matrix.identity(3) - x + (x * x).scale(Q(1, 2))
    assert u * uinv == Matrix.identity(3)
    for i in range(g.dim):
        m = g.realization[i]
        assert a.col(i) == coords(g, u * m * uinv)
    # the 0-dimensional algebra gets the 0×0 identity
    g0 = LieAlgebra([])
    assert g0.exp_ad(()) == Matrix.identity(0)
    assert g0.in_nilpotent_cone(())


def test_exp_ad_rejects_non_nilpotent():
    g = gl(2)
    with pytest.raises(DomainError):
        g.exp_ad(coords(g, E(2, 0, 0)))


def test_quotient_algebra():
    g = gl(2)
    scalars = span(g, [E(2, 0, 0) + E(2, 1, 1)])
    quo, proj, section = g.quotient_algebra(scalars)
    assert quo.dim == 3
    assert quo.derived_algebra().dim == 3  # image of sl_2
    quo2, _, _ = g.quotient_algebra(g.zero_space())
    assert quo2.dim == g.dim
    # Borel(gl_2) / span{E12} is 2-dim abelian
    borel = span(g, [E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)])
    sub, to_sub, _ = g.restrict(borel)
    ideal = Subspace.from_vectors(
        sub.dim, [to_sub(coords(g, E(2, 0, 1)))]
    )
    ab, _, _ = sub.quotient_algebra(ideal)
    assert ab.dim == 2
    assert ab.derived_algebra().dim == 0


def test_cartan_criterion_for_catalog_form():
    for g in (gl(2), gl(3)):
        rad = g.perp(g.full_space())
        assert rad.intersect(g.derived_algebra()).dim == 0


def test_structure_validation_rejects_bad_tensor():
    # break Jacobi: [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2 fails
    z = (Q(0),) * 3
    c = [
        [z, (Q(0), Q(0), Q(1)), (Q(1), Q(0), Q(0))],
        [(Q(0), Q(0), Q(-1)), z, (Q(0), Q(1), Q(0))],
        [(Q(-1), Q(0), Q(0)), (Q(0), Q(-1), Q(0)), z],
    ]
    with pytest.raises(DomainError):
        LieAlgebra(c)


def test_structure_validation_checks_every_triple():
    # the broken tensor above on b1, b2, b4 next to central b0 and b3:
    # the only triple that fails Jacobi is (1,2,4)
    n = 5

    def e(k, c=1):
        return tuple(Q(c) if i == k else Q(0) for i in range(n))

    c = [[(Q(0),) * n for _ in range(n)] for _ in range(n)]
    for i, j, v in ((1, 2, e(4)), (1, 4, e(1)), (2, 4, e(2))):
        c[i][j] = v
        c[j][i] = tuple(-x for x in v)
    with pytest.raises(DomainError, match=r"Jacobi fails at \(1,2,4\)"):
        LieAlgebra(c)


def test_structure_validation_rejects_non_antisymmetric_tensor():
    z = (Q(0),) * 2
    e0 = (Q(1), Q(0))
    with pytest.raises(DomainError, match="antisymmetry"):
        LieAlgebra([[z, e0], [e0, z]])
    with pytest.raises(DomainError, match="antisymmetry"):
        LieAlgebra([[e0, z], [z, z]])


def test_realization_must_match_structure():
    g = gl(2)
    e11, e12, e21, e22 = g.realization
    with pytest.raises(DomainError, match=r"disagrees .* at \(0,1\)"):
        LieAlgebra(g.structure, realization=[e11, e21, e12, e22])


def test_from_matrices_rejects_bad_families():
    with pytest.raises(DomainError, match="linearly independent"):
        LieAlgebra.from_matrices([E(2, 0, 0), E(2, 0, 1),
                                  E(2, 0, 0) + E(2, 0, 1)])
    with pytest.raises(DomainError, match="closed under commutator"):
        LieAlgebra.from_matrices([E(2, 0, 1), E(2, 1, 0)])


def test_from_matrices_checks_its_coordinates_on_the_commutators(
        monkeypatch):
    # doubled coordinates keep antisymmetry and Jacobi; only the
    # realization check against the formed commutators can see them
    solve_coords = Subspace.coordinates_of

    def doubled(self, v):
        cs = solve_coords(self, v)
        return None if cs is None else tuple(2 * x for x in cs)

    monkeypatch.setattr(Subspace, "coordinates_of", doubled)
    with pytest.raises(DomainError, match=r"disagrees .* at \(0,1\)"):
        LieAlgebra.from_matrices([E(2, 0, 1), E(2, 1, 0),
                                  E(2, 0, 0) - E(2, 1, 1)])


def test_from_matrices_matches_commutators():
    mats = [E(2, 0, 1), E(2, 1, 0), E(2, 0, 0) - E(2, 1, 1)]
    g = LieAlgebra.from_matrices(mats)
    # [e, f] = h, [h, e] = 2e, [h, f] = -2f
    assert g.structure[0][1] == (Q(0), Q(0), Q(1))
    assert g.structure[2][0] == (Q(2), Q(0), Q(0))
    assert g.structure[2][1] == (Q(0), Q(-2), Q(0))
    assert g.trace_form.gram == Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 2]])
