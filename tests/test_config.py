import json
import os
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations

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
    project_configuration,
    report_dot,
    report_json,
    simplex_configuration,
)
from liepar.errors import DomainError
from liepar.parabolic import conjugate_parabolic, opposite
from liepar.ratmat import lincomb

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "liepar", "golden",
)


def golden(name):
    # the acceptance battery's criterion 8 checks these reports byte
    # for byte against the examples, so the counts read them directly
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        return json.loads(fh.read().decode())


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
    systems = []
    real = rootdata.parabolic_from_subset

    def counting(system, J):
        systems.append(system)
        return real(system, J)

    # duality_involution builds one maximal parabolic per simple root
    monkeypatch.setattr(rootdata, "parabolic_from_subset", counting)
    first = center_structures(standard_parabolic(g, [ss.simples[0]]), ss)
    second = center_structures(standard_parabolic(g, [ss.simples[1]]), ss)
    assert sum(s is ss for s in systems) == len(ss.simples)
    assert rootdata.duality_involution(ss) is rootdata.duality_involution(ss)
    assert first.nu_image() | second.nu_image() <= set(ss.simples)


ALGEBRAS = {"gl3": lambda: gl(3), "so31": lambda: so(3, 1),
            "so32": lambda: so(3, 2), "so42": lambda: so(4, 2),
            "so52": lambda: so(5, 2), "so33": lambda: so(3, 3)}
RANKS = {"gl3": 2, "so31": 1, "so32": 2, "so42": 2, "so52": 2, "so33": 3}
# every proper standard center, as positions of its type in ss.simples
CENTERS = [(name, J) for name, rank in RANKS.items()
           for k in range(1, rank + 1)
           for J in combinations(range(rank), k)]
# nu and iota of the conjugated centers of the split forms as they were
# computed over the local root datum of the center's chamber: quotient
# simple (its values on the quotient Cartan's canonical basis) -> the
# position of a base simple
SPLIT = {
    ("gl3", (0,)): ({"0 -1 -1": 0}, {"0 -1 -1": 1}),
    ("gl3", (1,)): ({"1/2 1/2 0": 1}, {"1/2 1/2 0": 0}),
    ("gl3", (0, 1)): ({}, {}),
    ("so32", (0,)): ({"-1/2 -13/16": 1}, {"-1/2 -13/16": 1}),
    ("so32", (1,)): ({"0 35/32": 0}, {"0 35/32": 0}),
    ("so32", (0, 1)): ({}, {}),
    ("so33", (0,)): ({"1/9 7/36 1/2": 0, "1/3 7/12 0": 2},
                     {"1/9 7/36 1/2": 2, "1/3 7/12 0": 1}),
    ("so33", (1,)): ({"1/3 -7/12 -7/6": 1, "1/3 7/12 0": 2},
                     {"1/3 -7/12 -7/6": 2, "1/3 7/12 0": 0}),
    ("so33", (2,)): ({"0 23/60 23/36": 1, "0 23/12 -23/36": 0},
                     {"0 23/60 23/36": 0, "0 23/12 -23/36": 1}),
    ("so33", (0, 1)): ({"7/3 49/12 0": 2}, {"7/3 49/12 0": 2}),
    ("so33", (0, 2)): ({"0 245/36 -5/6": 0}, {"0 245/36 -5/6": 1}),
    ("so33", (1, 2)): ({"0 161/348 7/174": 1}, {"0 161/348 7/174": 0}),
    ("so33", (0, 1, 2)): ({}, {}),
}


@lru_cache(maxsize=None)
def dense_conjugator(name):
    """exp(ad x), x the sum of the opposite Borel's nilradical basis: it
    moves every proper standard parabolic off the base chamber."""
    g = ALGEBRAS[name]()
    ss = standard_simple_system(g)
    nil = opposite(ss.chamber, ss.xi).nilradical
    return g.exp_ad(lincomb([1] * nil.dim, nil.vectors(), g.dim))


@pytest.mark.parametrize("name,J", CENTERS,
                         ids=["%s-%s" % (n, "".join(map(str, J)))
                              for n, J in CENTERS])
def test_conjugated_center_structures(name, J):
    g = ALGEBRAS[name]()
    ss = standard_simple_system(g)
    q = standard_parabolic(g, [ss.simples[i] for i in J])
    conj = conjugate_parabolic(q, dense_conjugator(name))
    assert not conj.space.contains(ss.chamber.space)
    st, moved = center_structures(q, ss), center_structures(conj, ss)
    assert moved.nu_image() == st.nu_image()
    assert set(moved.iota.values()) == set(st.iota.values())
    if name in ("gl3", "so32", "so33"):
        def read(table):
            return {tuple(map(Q, b.split())): ss.simples[i]
                    for b, i in table.items()}

        nu, iota = SPLIT[name, J]
        assert moved.nu == read(nu) and moved.iota == read(iota)


def test_tetrahedron_counts():
    rep = golden("tetrahedron")
    mat = rep["incidence"]["1:2"]["matrix"]
    assert len(mat) == 4 and len(mat[0]) == 6
    assert rep["incidence"]["1:2"]["row_sums"] == [3, 3, 3, 3]
    assert rep["incidence"]["1:2"]["col_sums"] == [2] * 6


def test_octahedron_counts():
    rep = golden("octahedron")
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


def triangle():
    # the coordinate simplex of gl(3): three points, three lines
    return simplex_configuration(gl(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_report_json_is_deterministic():
    a = report_json(incidence_report(triangle()))
    b = report_json(incidence_report(triangle()))
    assert a == b
    parsed = json.loads(a)
    assert parsed["types"] == ["1", "2"]
    assert parsed["incidence"]["1:2"]["row_sums"] == [2, 2, 2]


def test_report_dot_runs():
    out = report_dot(triangle())
    assert out.startswith("graph")
    assert out.count(" -- ") == 6
