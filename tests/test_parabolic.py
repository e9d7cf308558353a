from fractions import Fraction as Q

import pytest

from liepar.catalog import (
    FlagSpec,
    element_from_matrix,
    flag_stabilizer,
    gl,
    so,
    standard_borel,
    standard_parabolic,
    standard_simple_system,
)
from liepar.errors import DomainError
from liepar.parabolic import (
    common_levi,
    conjugate_parabolic,
    grading_lift,
    is_costandard,
    is_opposite,
    is_parabolic,
    is_weakly_opposite,
    lowest_weight_line,
    make_parabolic,
    opposite,
    project,
)
from liepar.ratmat import Matrix, Subspace, kernel, vec_is_zero, vec_scale


def E(n, i, j):
    rows = [[Q(0)] * n for _ in range(n)]
    rows[i][j] = Q(1)
    return Matrix(rows)


def span(g, mats):
    return Subspace.from_vectors(
        g.dim, [element_from_matrix(g, m) for m in mats]
    )


def upper_borel(n):
    g = gl(n)
    mats = [E(n, i, j) for i in range(n) for j in range(n) if i <= j]
    return g, span(g, mats)


def test_recognizer_positive():
    g, b = upper_borel(2)
    ok, cert = is_parabolic(g, b)
    assert ok and cert["conditions"] == (True, True, True, True)
    assert cert["nil_ideal"] == span(g, [E(2, 0, 1)])
    ok, _ = is_parabolic(g, g.full_space())
    assert ok
    g3, b3 = upper_borel(3)
    assert is_parabolic(g3, b3)[0]


def test_recognizer_negative():
    g = gl(2)
    cartan = span(g, [E(2, 0, 0), E(2, 1, 1)])
    ok, cert = is_parabolic(g, cartan)
    assert not ok and cert["conditions"] == (False,) * 4
    sl2 = span(g, [E(2, 0, 1), E(2, 1, 0), E(2, 0, 0) - E(2, 1, 1)])
    ok, cert = is_parabolic(g, sl2)
    assert not ok and cert["conditions"] == (False,) * 4
    nil = span(g, [E(2, 0, 1)])
    ok, _ = is_parabolic(g, nil)
    assert not ok


def test_recognizer_rejects_non_subalgebra():
    g = gl(2)
    s = span(g, [E(2, 0, 1), E(2, 1, 0)])
    with pytest.raises(DomainError):
        is_parabolic(g, s)


def eigenspaces(g, x, values):
    """{k: ker(ad x − k)}, checked to fill g: ad x is diagonalizable with
    its eigenvalues among the given values."""
    ident = Matrix.identity(g.dim)
    spaces = {k: kernel(g.ad(x) - ident.scale(k)) for k in values}
    assert sum(es.dim for es in spaces.values()) == g.dim
    return spaces


def test_grading_lift_borel_gl2():
    g, b = upper_borel(2)
    pd = make_parabolic(g, b)
    xi, torsor = grading_lift(pd)
    # ad ξ is diagonal with eigenvalues -1, 0, 1: the kernels there fill g
    spaces = eigenspaces(g, xi, (-1, 0, 1))
    assert [spaces[k].dim for k in (-1, 0, 1)] == [1, 2, 1]
    # torsor = nil(p) + scalars inside p
    scalars = span(g, [E(2, 0, 0) + E(2, 1, 1)])
    assert torsor == pd.nilradical.sum(scalars)


def test_grading_lift_line_stabilizer_gl3():
    g = gl(3)
    mats = [E(3, i, j) for i in range(3) for j in range(3)
            if not (i == 0 and j in (1, 2))]
    pd = make_parabolic(g, span(g, mats))
    assert pd.nilradical.dim == 2
    assert pd.levi_quotient().algebra.dim == 5
    xi, _ = grading_lift(pd)
    spaces = eigenspaces(g, xi, (-2, -1, 0, 1, 2))
    assert {k: spaces[k].dim for k in spaces} == {
        -2: 0, -1: 2, 0: 5, 1: 2, 2: 0}


def test_opposite():
    g, b = upper_borel(2)
    pd = make_parabolic(g, b)
    op = opposite(pd)
    lower = span(g, [E(2, 0, 0), E(2, 1, 0), E(2, 1, 1)])
    assert op.space == lower
    assert is_opposite(pd, op) and is_weakly_opposite(pd, op)
    assert not is_costandard(pd, op)
    assert opposite(op).space == pd.space
    full = make_parabolic(g, g.full_space())
    assert opposite(full).space == g.full_space()


def test_opposite_refuses_a_non_lift():
    g = gl(3)
    pd = standard_borel(g)
    xi, _ = grading_lift(pd)
    e = pd.nilradical.vectors()[0]
    # half-integer and nilpotent ad ξ leave the integer kernels short of
    # g; 0 and -ξ grade g, but their nonpositive parts are not pd
    for bad in (vec_scale(Q(1, 2), xi), e, vec_scale(0, xi),
                vec_scale(-1, xi)):
        with pytest.raises(DomainError, match="not a grading lift"):
            opposite(pd, bad)


def first_maximal(g):
    ss = standard_simple_system(g)
    return standard_parabolic(g, [ss.simples[0]])


def test_costandard_and_weakly_opposite():
    g = gl(3)
    pb = standard_borel(g)
    q = first_maximal(g)
    assert is_costandard(pb, q) and is_costandard(q, pb)
    # a costandard pair meets in a parabolic
    assert is_parabolic(g, pb.space.intersect(q.space))[0]
    op = opposite(pb)
    assert is_weakly_opposite(q, op) and not is_opposite(q, op)


def test_projection_degenerate_cases():
    g = gl(3)
    q = first_maximal(g)
    full = make_parabolic(g, g.full_space())
    r, r0 = project(q, full)
    assert r.space == q.space
    r, r0 = project(q, opposite(q))
    assert r.space == q.space
    assert r0.space == q.levi_quotient().algebra.full_space()


def test_projection_of_borel():
    g = gl(3)
    q = first_maximal(g)
    pb = opposite(standard_borel(g))  # lower triangular
    r, r0 = project(q, pb)
    ok, _ = is_parabolic(q.levi_quotient().algebra, r0.space)
    assert ok
    assert q.space.contains(r.space)
    assert r.space.contains(q.nilradical)


def test_common_levi_gl2():
    g, b = upper_borel(2)
    pd = make_parabolic(g, b)
    op = opposite(pd)
    l, xi_p, xi_q = common_levi(pd, op)
    assert l == span(g, [E(2, 0, 0), E(2, 1, 1)])
    assert pd.has_levi(l) and op.has_levi(l)
    assert vec_is_zero(g.bracket(xi_p, xi_q))
    assert l.contains_vector(xi_p) and l.contains_vector(xi_q)


def test_has_levi_rejects_non_complements():
    g = gl(3)
    pb = standard_borel(g)
    op = opposite(pb)
    l, _, _ = common_levi(pb, op)
    assert pb.has_levi(l) and op.has_levi(l)
    lv, nv = l.vectors(), pb.nilradical.vectors()
    for bad in (
        l.sum(Subspace.from_vectors(g.dim, nv[:1])),  # meets nil(pb)
        Subspace.from_vectors(g.dim, lv[1:]),  # misses a direction
        Subspace.from_vectors(g.dim, lv[1:] + nv[:1]),  # both
        Subspace.from_vectors(g.dim, lv[1:] + op.nilradical.vectors()[:1]),
    ):
        assert not pb.has_levi(bad)


def test_conjugate_parabolic():
    g = gl(3)
    pb = standard_borel(g)
    x = element_from_matrix(g, E(3, 1, 0) + E(3, 2, 1).scale(Q(2)))
    a = g.exp_ad(x)
    pc = conjugate_parabolic(pb, a)
    assert pc.space != pb.space
    assert pc.dim == pb.dim and pc.nilradical.dim == pb.nilradical.dim
    ainv = g.exp_ad(tuple(-c for c in x))
    assert conjugate_parabolic(pc, ainv).space == pb.space


def test_lowest_weight_line():
    g = gl(2)
    pd = make_parabolic(g, span(g, [E(2, 0, 0), E(2, 0, 1), E(2, 1, 1)]))
    mod_dim, line, stab = lowest_weight_line(pd)
    assert mod_dim == 4 and stab == pd.space
    g3 = gl(3)
    q = flag_stabilizer(g3, FlagSpec(3, [Subspace.from_vectors(3, [[1, 0, 0]])]))
    mod_dim, _, stab = lowest_weight_line(q)
    assert mod_dim == 36 and stab == q.space


def test_lowest_weight_line_budget():
    # the gl(4) Borel: Λ^6 of a 16-dimensional module has C(16, 6) = 8008
    # dimensions, over the budget of 512
    with pytest.raises(DomainError, match="8008 exceeds budget 512"):
        lowest_weight_line(standard_borel(gl(4)))


def test_filtration_of_so_borel():
    g = so(3, 2)
    pb = standard_borel(g)
    f = pb.filtration
    assert f.level(0) == pb.space
    assert f.level(-1) == pb.nilradical
    assert f.level(min(f.indices())).dim == 0
    assert f.level(max(f.indices())) == g.full_space()


def test_ambient_mismatch_rejected():
    p2 = standard_borel(gl(2))
    p3 = standard_borel(gl(3))
    with pytest.raises(DomainError):
        is_costandard(p2, p3)
