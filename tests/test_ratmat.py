from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepar.ratmat import (
    BilinearForm,
    Matrix,
    Subspace,
    kernel,
    lincomb,
    rref,
    solve,
    vec_is_zero,
)


def unit(n, i):
    v = [Q(0)] * n
    v[i] = Q(1)
    return v


def test_rref_rank_collapse():
    m = Matrix([[2, 4], [1, 2]])
    assert rref(m) == Matrix([[1, 2]])


def test_rref_identity_and_permutation():
    assert rref(Matrix.identity(3)) == Matrix.identity(3)
    assert rref(Matrix([[0, 1], [1, 0]])) == Matrix.identity(2)


def test_rref_idempotent():
    m = Matrix([[1, 2, 3], [2, 4, 7], [0, 0, 1]])
    assert rref(rref(m)) == rref(m)


def test_sum_intersect_contains():
    e1 = Subspace.from_vectors(3, [unit(3, 0)])
    e2 = Subspace.from_vectors(3, [unit(3, 1)])
    s12 = Subspace.from_vectors(3, [unit(3, 0), unit(3, 1)])
    s23 = Subspace.from_vectors(3, [unit(3, 1), unit(3, 2)])
    assert e1.sum(e2) == s12
    assert s12.intersect(s23) == e2
    assert Subspace.full(3).contains(s23)
    assert s12.contains(s12.intersect(s23))
    assert s12.sum(s23).contains(s12)


def test_dim_formula():
    s = Subspace.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    t = Subspace.from_vectors(4, [[1, 1, 1, 0], [0, 0, 0, 1]])
    assert s.sum(t).dim + s.intersect(t).dim == s.dim + t.dim


def test_solve_cases():
    ident = Matrix.identity(2)
    part, ker = solve(ident, [Q(3), Q(5)])
    assert part == (Q(3), Q(5)) and ker.dim == 0
    part, ker = solve(Matrix.zero(2, 2), [Q(0), Q(0)])
    assert ker.dim == 2
    part, ker = solve(Matrix([[1, 1]]), [Q(2)])
    # particular + kernel describes the full affine line
    assert part[0] + part[1] == 2
    assert ker == Subspace.from_vectors(2, [[1, -1]])
    assert solve(Matrix([[1], [1]]), [Q(0), Q(1)]) is None


def test_kernel():
    k = kernel(Matrix([[1, 2, 3]]))
    assert k.dim == 2
    for v in k.vectors():
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


# Gram matrix of tr(xy) on gl_2 in the basis E11, E12, E21, E22:
# tr(E_ij E_kl) = delta_jk delta_li
GL2_GRAM = Matrix([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
])


def test_perp_gl2_trace_form():
    form = BilinearForm(GL2_GRAM)
    assert form.is_nondegenerate()
    upper = Subspace.from_vectors(4, [unit(4, 0), unit(4, 1), unit(4, 3)])
    p = upper.perp(form)
    assert p == Subspace.from_vectors(4, [unit(4, 1)])
    assert Subspace.full(4).perp(form).dim == 0
    assert Subspace.zero(4).perp(form) == Subspace.full(4)


def test_perp_inclusion_reversing_and_involutive():
    form = BilinearForm(GL2_GRAM)
    s = Subspace.from_vectors(4, [[1, 2, 0, 0], [0, 0, 1, 1]])
    t = Subspace.from_vectors(4, [[1, 2, 0, 0]])
    assert s.contains(t)
    assert t.perp(form).contains(s.perp(form))
    assert s.perp(form).perp(form) == s
    assert s.dim + s.perp(form).dim == 4


def test_reduce_and_coordinates():
    s = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 0]])
    assert s.contains_vector([2, 3, 2])
    assert not s.contains_vector([1, 0, 0])
    r = s.reduce([2, 3, 5])
    assert s.reduce(r) == r  # canonical residual is idempotent
    assert s.coordinates_of([2, 3, 2]) == (Q(2), Q(3))


def test_structural_equality():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 2]])
    b = Subspace.from_vectors(3, [[2, 2, 2], [0, 0, 1]])
    assert a == b and hash(a) == hash(b)


# ~80% of the drawn entries are zero, as in the ad matrices the
# products mostly see
sparse_fracs = st.tuples(
    st.integers(0, 4), st.fractions(min_value=-4, max_value=4,
                                    max_denominator=3),
).map(lambda t: t[1] if t[0] == 0 else Q(0))


def sparse_matrices(rows, cols):
    # Matrix([]) has no columns, so 0-row shapes go through Matrix.zero
    if rows == 0:
        return st.just(Matrix.zero(0, cols))
    return st.lists(
        st.lists(sparse_fracs, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Matrix)


def dense_product(a, b):
    return tuple(
        tuple(sum((a[i, t] * b[t, j] for t in range(a.cols)), Q(0))
              for j in range(b.cols))
        for i in range(a.rows)
    )


def sparse_vectors(n):
    return st.lists(sparse_fracs, min_size=n, max_size=n)


@st.composite
def product_operands(draw):
    """a (r×k), b (k×c), a k-vector v, coefficients on a's rows, and a
    k×k matrix."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(sparse_matrices(r, k))
    b = draw(sparse_matrices(k, c))
    v = draw(sparse_vectors(k))
    coeffs = draw(sparse_vectors(r))
    return a, b, v, coeffs, draw(sparse_matrices(k, k))


def dense_lincomb(coeffs, vectors, n):
    return tuple(
        sum((c * vec[t] for c, vec in zip(coeffs, vectors)), Q(0))
        for t in range(n)
    )


@given(product_operands())
@settings(max_examples=150, deadline=None)
def test_sparse_products_equal_dense_reference(ops):
    a, b, v, coeffs, sq = ops
    ab = a * b
    assert (ab.rows, ab.cols) == (a.rows, b.cols)
    assert ab.data == dense_product(a, b)
    assert all(type(x) is Q for r in ab.data for x in r)
    # powers of sq equal the e-fold dense products
    want = Matrix.identity(sq.rows)
    for e in range(5):
        assert (sq ** e).data == want.data
        want = Matrix(dense_product(want, sq))
    av = a.mulvec(v)
    assert av == tuple(
        sum((a[i, t] * v[t] for t in range(a.cols)), Q(0))
        for i in range(a.rows)
    )
    assert all(type(x) is Q for x in av)
    k = a.cols
    # lincomb, including zero coefficients and the empty vector list
    comb = lincomb(coeffs, a.data, k)
    assert comb == dense_lincomb(coeffs, a.data, k)
    assert all(type(x) is Q for x in comb)
    assert lincomb([Q(0)] * a.rows, a.data, k) == (Q(0),) * k
    # the system whose columns are a's rows (a k×0 system when a has
    # no rows)
    cols = a.transpose()
    assert (cols.rows, cols.cols) == (k, a.rows)
    res = solve(cols, v)
    span = Subspace.from_vectors(k, a.data)
    if res is None:
        assert not span.contains_vector(v)
    else:
        x, ker = res
        assert dense_lincomb(x, a.data, k) == tuple(v)
        # read off the same elimination as the solution
        assert ker == kernel(cols)
        assert ker.dim == a.rows - span.dim
        for kv in ker.vectors():
            assert vec_is_zero(dense_lincomb(kv, a.data, k))
    # the restricted Gram matrix ⟨a_i, a_j⟩ of a symmetric form
    gram = sq + sq.transpose()
    restricted = BilinearForm(gram).restrict(a.data)
    assert restricted.gram.data == tuple(
        tuple(sum((x * gram[s, t] * y
                   for s, x in enumerate(ai) for t, y in enumerate(aj)),
                  Q(0))
              for aj in a.data)
        for ai in a.data
    )


@st.composite
def entrywise_operands(draw):
    """Two r×c matrices and a scalar, zero and negative ones included."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    scalar = draw(st.one_of(
        st.sampled_from([0, -1, Q(-2, 3)]),
        st.fractions(min_value=-4, max_value=4, max_denominator=3)))
    return draw(sparse_matrices(r, c)), draw(sparse_matrices(r, c)), scalar


def entrywise(op, *ms):
    return tuple(tuple(op(*xs) for xs in zip(*rows))
                 for rows in zip(*(m.data for m in ms)))


@given(entrywise_operands())
@settings(max_examples=100, deadline=None)
def test_entrywise_arithmetic_equals_fraction_reference(ops):
    a, b, c = ops
    results = [
        (a + b, entrywise(lambda x, y: x + y, a, b)),
        (a - b, entrywise(lambda x, y: x - y, a, b)),
        (a.scale(c), entrywise(lambda x: Q(c) * x, a)),
        (a.scale(0), entrywise(lambda x: Q(0), a)),
        (-a, entrywise(lambda x: -x, a)),
    ]
    for got, want in results:
        assert (got.rows, got.cols) == (a.rows, a.cols)
        assert got.data == want
        assert all(type(x) is Q for r in got.data for x in r)
    assert a.scale(0).is_zero()


def test_products_reject_shape_mismatch():
    a = Matrix([[1, 0, 2], [0, 0, 1]])
    with pytest.raises(ValueError):
        a * a
    with pytest.raises(ValueError):
        a.mulvec([Q(1), Q(0)])
    with pytest.raises(ValueError):
        Matrix.zero(0, 2) * Matrix.zero(3, 1)
    for base, k in ((a, 2), (a, 0), (Matrix.identity(2), -1)):
        with pytest.raises(ValueError):
            base ** k
    for wrong in (a.transpose(), Matrix.zero(2, 2), Matrix.zero(0, 3)):
        with pytest.raises(ValueError):
            a + wrong
        with pytest.raises(ValueError):
            a - wrong
