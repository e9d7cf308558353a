
import pytest

from liepar.catalog import (
    FlagSpec,
    _check_form_skew,
    _so_gram,
    all_standard_parabolics,
    element_from_matrix,
    entry,
    flag_from_parabolic,
    flag_stabilizer,
    gl,
    isotropic_flag_stabilizer,
    sl,
    so,
    standard_borel,
    standard_minimal_levi,
    standard_parabolic,
    standard_simple_system,
)
from liepar.config import cross_configuration
from liepar.errors import DomainError, InternalCheckError
from liepar.liealg import LieAlgebra
from liepar.parabolic import is_parabolic
from liepar.ratmat import Matrix, Subspace


def test_dimensions():
    assert gl(3).dim == 9
    assert sl(3).dim == 8
    assert so(3, 2).dim == 10
    assert so(4, 3).dim == 21


def test_gl_realization_is_faithful():
    g = gl(2)
    m = Matrix([[1, 2], [3, 4]])
    x = element_from_matrix(g, m)
    back = Matrix.zero(2, 2)
    for c, r in zip(x, g.realization):
        back = back + r.scale(c)
    assert back == m


def test_so_realization_preserves_form():
    g = so(3, 2)
    s = entry(g).form
    for r in g.realization:
        assert (r.transpose() * s + s * r).is_zero()
    assert s == s.transpose()
    assert s.rank() == 5


def test_so_basis_skewness_check_fires():
    s = _so_gram(1, 1)
    _check_form_skew(so(1, 1).realization, s)
    with pytest.raises(InternalCheckError, match="not skew for the form"):
        _check_form_skew([Matrix([[1, 0], [0, 0]])], s)


def test_element_from_matrix_rejects_outsiders():
    g = so(3, 2)
    bad = Matrix.identity(5)
    with pytest.raises(DomainError):
        element_from_matrix(g, bad)
    # a matrix of the wrong size is rejected, not solved on a corner
    with pytest.raises(DomainError, match="realization 5×5"):
        element_from_matrix(g, Matrix.identity(4))


def test_flag_stabilizer_line_gl3():
    g = gl(3)
    line = Subspace.from_vectors(3, [[1, 0, 0]])
    q = flag_stabilizer(g, FlagSpec(3, [line]))
    assert q.dim == 7 and q.nilradical.dim == 2
    ok, _ = is_parabolic(g, q.space)
    assert ok


def test_non_catalog_algebra_is_a_domain_error():
    # gl(2) rebuilt from its matrices: same realization, no catalog entry
    h = LieAlgebra.from_matrices(gl(2).realization)
    for call in (lambda: standard_borel(h),
                 lambda: standard_simple_system(h),
                 lambda: isotropic_flag_stabilizer(h, FlagSpec(2, [])),
                 lambda: cross_configuration(h, [])):
        with pytest.raises(DomainError, match="not a catalog algebra"):
            call()
    # the flag stabilizer needs only the realization
    line = Subspace.from_vectors(2, [[1, 0]])
    assert (flag_stabilizer(h, FlagSpec(2, [line])).space
            == flag_stabilizer(gl(2), FlagSpec(2, [line])).space)


def test_flag_round_trip_gl():
    g = gl(4)
    chain = [
        Subspace.from_vectors(4, [[1, 0, 0, 0]]),
        Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 1, 0]]),
    ]
    f = FlagSpec(4, chain)
    q = flag_stabilizer(g, f)
    assert flag_from_parabolic(q) == f


def test_flag_round_trip_so():
    g = so(3, 2)
    line = Subspace.from_vectors(5, [[1, 0, 0, 0, 0]])  # u_1, isotropic
    f = FlagSpec(5, [line], form=entry(g).form)
    q = isotropic_flag_stabilizer(g, f)
    ok, _ = is_parabolic(g, q.space)
    assert ok
    assert flag_from_parabolic(q) == f


def test_isotropic_flag_rejects_anisotropic_line():
    g = so(3, 2)
    bad = Subspace.from_vectors(5, [[0, 0, 0, 0, 1]])  # Q(w,w) = 1
    with pytest.raises(DomainError):
        FlagSpec(5, [bad], form=entry(g).form)


def test_standard_borel_gl3():
    g = gl(3)
    pb = standard_borel(g)
    assert pb.dim == 6 and pb.nilradical.dim == 3
    # minimal: its Levi quotient is abelian
    lq = pb.levi_quotient()
    assert lq.algebra.derived_algebra().dim == 0


def test_standard_borel_so32():
    g = so(3, 2)
    pb = standard_borel(g)
    assert pb.dim == 6 and pb.nilradical.dim == 4


def test_standard_minimal_levi():
    g = gl(3)
    levi, rd = standard_minimal_levi(g)
    assert levi.dim == 3
    assert rd.levi == levi
    assert standard_borel(g).space.contains(levi)


def test_all_standard_parabolics():
    g = gl(3)
    allp = all_standard_parabolics(g)
    assert len(allp) == 4
    spaces = {pd.space for pd in allp.values()}
    assert len(spaces) == 4
    ss = standard_simple_system(g)
    assert allp[frozenset()].space == g.full_space()
    assert allp[frozenset(ss.simples)].space == standard_borel(g).space
    g2 = so(3, 2)
    assert len(all_standard_parabolics(g2)) == 4


def test_standard_parabolic_containment():
    g = gl(3)
    ss = standard_simple_system(g)
    pb = standard_borel(g)
    for a in ss.simples:
        q = standard_parabolic(g, [a])
        assert q.space.contains(pb.space)
        assert q.dim == 7


def test_sl_has_trivial_center():
    g = sl(3)
    assert g.center().dim == 0
    assert gl(3).center().dim == 1


def test_flag_spec_validation():
    with pytest.raises(DomainError):
        FlagSpec(3, [Subspace.full(3)])
    with pytest.raises(DomainError):
        FlagSpec(3, [Subspace.zero(3)])
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.from_vectors(3, [[0, 0, 1]])
    with pytest.raises(DomainError):
        FlagSpec(3, [a, b])
