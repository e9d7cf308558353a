from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from liepar.catalog import element_from_matrix, gl, sl, standard_borel
from liepar.ratmat import BilinearForm, Matrix, Subspace

fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def subspaces(ambient):
    return st.lists(
        st.lists(fracs, min_size=ambient, max_size=ambient),
        min_size=0, max_size=ambient,
    ).map(lambda vs: Subspace.from_vectors(ambient, vs))


@given(subspaces(4), subspaces(4), subspaces(4))
@settings(max_examples=60, deadline=None)
def test_lattice_laws(a, b, c):
    assert a.sum(b) == b.sum(a)
    assert a.intersect(b) == b.intersect(a)
    assert a.sum(a) == a and a.intersect(a) == a
    assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim
    # modular law: a <= c implies a + (b ∩ c) = (a + b) ∩ c
    ac = a.intersect(c)
    lhs = ac.sum(b.intersect(c))
    rhs = ac.sum(b).intersect(c)
    assert lhs == rhs


# Gram matrix of tr(xy) on gl_2 in the basis E11, E12, E21, E22
GL2_FORM = BilinearForm(Matrix([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
]))


@given(subspaces(4), subspaces(4))
@settings(max_examples=60, deadline=None)
def test_perp_laws(a, b):
    pa, pb = a.perp(GL2_FORM), b.perp(GL2_FORM)
    assert pa.perp(GL2_FORM) == a
    assert a.dim + pa.dim == 4
    if b.contains(a):
        assert pa.contains(pb)
    assert a.sum(b).perp(GL2_FORM) == pa.intersect(pb)


def nil_elements(g):
    """Random elements of the strictly upper-triangular part."""
    nil = standard_borel(g).nilradical
    k = nil.dim

    def build(coeffs):
        v = [Q(0)] * g.dim
        for c, b in zip(coeffs, nil.vectors()):
            for i, x in enumerate(b):
                v[i] += c * x
        return tuple(v)

    return st.lists(fracs, min_size=k, max_size=k).map(build)


@given(nil_elements(gl(3)), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=25, deadline=None)
def test_exp_ad_is_automorphism(x, i, j):
    g = gl(3)
    a = g.exp_ad(x)
    u, v = g.basis_element(i), g.basis_element(j)
    lhs = a.mulvec(g.bracket(u, v))
    rhs = g.bracket(a.mulvec(u), a.mulvec(v))
    assert tuple(lhs) == tuple(rhs)


@given(subspaces(9), subspaces(9), subspaces(9))
@settings(max_examples=20, deadline=None)
def test_transporter_brackets_into_target(a, b, c):
    # brackets_into answers [s, t] ⊆ target as the span form does, on
    # true targets (the span itself) and mostly false ones (b, c, 0),
    # with s passed as t and as an equal copy of t
    g = gl(3)
    t = g.transporter(a, b)
    assert b.contains(g.bracket_spaces(t, a))
    assert g.brackets_into(t, a, b)
    c_copy = Subspace.from_vectors(9, c.vectors())
    for s, u in ((t, a), (a, c), (a, a), (c, c_copy)):
        span = g.bracket_spaces(s, u)
        for target in (span, b, c, g.zero_space()):
            assert g.brackets_into(s, u, target) == target.contains(span)


@given(subspaces(9))
@settings(max_examples=20, deadline=None)
def test_transporter_perp_identity(a):
    # transporter(s, s) is the perp of [s, s^perp]
    g = gl(3)
    want = g.perp(g.bracket_spaces(a, g.perp(a)))
    assert g.transporter(a, a) == want


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_centralizer_pairs_match_in_sl_and_gl(i, j):
    # for subspaces of the traceless part, the joint centralizer in
    # gl is the embedded sl-centralizer plus the scalars
    g, h = gl(3), sl(3)
    a = Subspace.from_vectors(h.dim, [h.basis_element(i)])
    b = Subspace.from_vectors(h.dim, [h.basis_element(j)])
    cs = h.centralizer(a).intersect(h.centralizer(b))
    # embed sl_3 basis into gl_3 coordinates
    emb = [element_from_matrix(g, m) for m in h.realization]

    def up(v):
        out = [Q(0)] * g.dim
        for c, e in zip(v, emb):
            for k, x in enumerate(e):
                out[k] += c * x
        return out

    embedded = Subspace.from_vectors(g.dim, [up(v) for v in cs.vectors()])
    ag = Subspace.from_vectors(g.dim, [up(v) for v in a.vectors()])
    bg = Subspace.from_vectors(g.dim, [up(v) for v in b.vectors()])
    cg = g.centralizer(ag).intersect(g.centralizer(bg))
    assert cg == embedded.sum(g.center())
