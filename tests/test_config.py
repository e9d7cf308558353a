import json
import os

import pytest

from liepar import rootdata
from liepar.catalog import (
    gl,
    so,
    standard_borel,
    standard_minimal_levi,
    standard_parabolic,
    standard_simple_system,
)
from liepar.config import (
    center_structures,
    cross_configuration,
    incidence_report,
    octahedron_example,
    project_configuration,
    report_dot,
    report_json,
    simplex_configuration,
    tetrahedron_example,
)
from liepar.errors import DomainError

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "liepar", "golden",
)


@pytest.fixture(scope="module")
def tetrahedron():
    return tetrahedron_example()


@pytest.fixture(scope="module")
def octahedron():
    return octahedron_example()


def test_simplex_configuration_gl3():
    g = gl(3)
    cfg = simplex_configuration(g, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(cfg.targets) == 6
    # frame Levi is the diagonal torus
    assert cfg.levi_space.dim == 3
    for pd in cfg.targets.values():
        assert pd.space.contains(cfg.levi_space)


def test_simplex_rejects_degenerate_frame():
    g = gl(3)
    with pytest.raises(DomainError):
        simplex_configuration(g, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_cross_configuration_so32():
    g = so(3, 2)
    planes = [
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
        ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
    ]
    cfg = cross_configuration(g, planes)
    # admissible signed subsets of a 2-frame: 4 singletons + 4 pairs
    assert len(cfg.targets) == 8


def test_cross_rejects_non_isotropic():
    g = so(3, 2)
    planes = [
        ((1, 1, 0, 0, 0), (0, 1, 0, 0, 0)),  # u1+v1 is not isotropic
        ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
    ]
    with pytest.raises(DomainError):
        cross_configuration(g, planes)


def test_center_structures_nu_standard_center():
    g = gl(3)
    ss = standard_simple_system(g)
    from liepar.catalog import standard_parabolic

    q = standard_parabolic(g, [ss.simples[0]])
    st = center_structures(q, ss)
    # the quotient has rank 1; nu maps its simple into the base system
    assert len(st.ss0.simples) == 1
    assert st.nu_image() <= set(ss.simples)


def test_two_centers_over_one_base_compute_its_duality_once(monkeypatch):
    g = gl(3)
    # a fresh base system, so no earlier test has filled its duality
    ss = rootdata.simple_system(standard_minimal_levi(g)[1],
                                standard_borel(g))
    ambients = []
    real_opposite = rootdata.opposite

    def counting_opposite(q, xi=None):
        ambients.append(q.ambient)
        return real_opposite(q, xi)

    # duality_involution makes one opposite per simple root
    monkeypatch.setattr(rootdata, "opposite", counting_opposite)
    first = center_structures(standard_parabolic(g, [ss.simples[0]]), ss)
    second = center_structures(standard_parabolic(g, [ss.simples[1]]), ss)
    assert sum(a is g for a in ambients) == len(ss.simples)
    assert rootdata.duality_involution(ss) is rootdata.duality_involution(ss)
    assert first.nu_image() | second.nu_image() <= set(ss.simples)


def test_tetrahedron_report_matches_golden(tetrahedron):
    cfg, q, proj = tetrahedron
    got = report_json(incidence_report(proj))
    with open(os.path.join(GOLDEN, "tetrahedron.json"), "rb") as fh:
        want = fh.read().decode()
    assert got == want


def test_octahedron_report_matches_golden(octahedron):
    cfg, q, proj = octahedron
    got = report_json(incidence_report(proj))
    with open(os.path.join(GOLDEN, "octahedron.json"), "rb") as fh:
        want = fh.read().decode()
    assert got == want


def test_tetrahedron_counts(tetrahedron):
    cfg, q, proj = tetrahedron
    rep = incidence_report(proj)
    mat = rep["incidence"]["1:2"]["matrix"]
    assert len(mat) == 4 and len(mat[0]) == 6
    assert rep["incidence"]["1:2"]["row_sums"] == [3, 3, 3, 3]
    assert rep["incidence"]["1:2"]["col_sums"] == [2] * 6


def test_octahedron_counts(octahedron):
    cfg, q, proj = octahedron
    rep = incidence_report(proj)
    # the surviving elements are the signed pairs and triples
    mat = rep["incidence"]["2:3"]["matrix"]
    assert len(mat) == 12 and len(mat[0]) == 8
    assert rep["incidence"]["2:3"]["row_sums"] == [2] * 12
    assert rep["incidence"]["2:3"]["col_sums"] == [3] * 8


def test_projection_rejects_non_weakly_opposite():
    from liepar.catalog import FlagSpec, flag_stabilizer
    from liepar.config import _span

    g = gl(3)
    cfg = simplex_configuration(g, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # center through a frame point: some elements are not weakly
    # opposite to it
    line = _span(3, [(1, 0, 0)])
    q = flag_stabilizer(g, FlagSpec(3, [line]))
    with pytest.raises(DomainError):
        project_configuration(q, cfg)


def test_report_json_is_deterministic(tetrahedron):
    cfg, q, proj = tetrahedron
    a = report_json(incidence_report(proj))
    b = report_json(incidence_report(proj))
    assert a == b
    parsed = json.loads(a)
    assert parsed["types"] == ["1", "2"]


def test_report_dot_runs(tetrahedron):
    cfg, q, proj = tetrahedron
    out = report_dot(proj)
    assert out.startswith("graph")
