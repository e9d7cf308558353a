"""Geometric configurations: incidence morphisms from the small
combinatorial models into the maximal parabolics of a catalog
algebra, and their projection into Levi quotients.

A standard configuration is realized by a witness (a point frame, or
an isotropic frame of hyperbolic planes); projecting it through a
center parabolic q restricts the model along the type map nu_q and
pushes each element through parabolic projection.  The Levi
quotient's simple system and iota come from
rootdata.quotient_simple_system, which reads them in the base
apartment, so any center answers, on split and non-split forms alike.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q

from .building import IncidenceSystem, to_dot
from .catalog import (
    FlagSpec,
    entry,
    flag_stabilizer,
    frame_levi,
    incidence_model_admissible,
    incidence_model_subsets,
    realization_size,
    standard_simple_system,
)
from .errors import DomainError, InternalCheckError
from .parabolic import (
    ParabolicData,
    is_costandard,
    is_weakly_opposite,
    project,
)
from .ratmat import Subspace
from .rootdata import (
    duality_involution,
    quotient_simple_system,
    type_of_any,
)

__all__ = [
    "Configuration",
    "StandardConfiguration",
    "simplex_configuration",
    "cross_configuration",
    "project_configuration",
    "incidence_report",
    "tetrahedron_example",
    "octahedron_example",
]


class Configuration:
    """Assignment of parabolics to the elements of an incidence
    system; incident elements must map to costandard parabolics."""

    def __init__(self, source: IncidenceSystem, targets: dict, algebra):
        self.source = source
        self.targets = dict(targets)
        self.algebra = algebra
        if set(self.targets) != set(source.elements()):
            raise DomainError("assignment does not cover the model")
        self.verify_morphism()

    def verify_morphism(self):
        for e in self.source.elements():
            for f in self.source.neighbors(e):
                if not is_costandard(self.targets[e], self.targets[f]):
                    raise DomainError(
                        "incident elements with non-costandard images"
                    )


class StandardConfiguration(Configuration):
    """Configuration realized by a witness frame; injective, with all
    images containing the frame's minimal Levi."""

    def __init__(self, source, targets, algebra, levi_space):
        super().__init__(source, targets, algebra)
        self.levi_space = levi_space
        spaces = [t.space for t in self.targets.values()]
        if len({s for s in spaces}) != len(spaces):
            raise DomainError("assignment not injective")
        for t in self.targets.values():
            if not t.space.contains(levi_space):
                raise DomainError(
                    "image does not contain the frame Levi"
                )


def _span(dim, vectors):
    return Subspace.from_vectors(dim, [list(map(Q, v)) for v in vectors])


def simplex_configuration(g, points) -> StandardConfiguration:
    """Subsets of a spanning point frame ↦ stabilizers of their
    spans."""
    n1 = realization_size(g)
    points = [tuple(map(Q, p)) for p in points]
    if len(points) != n1:
        raise DomainError("need dim-many points")
    if _span(n1, points).dim != n1:
        raise DomainError("points do not span")
    model = incidence_model_subsets(n1 - 1)
    targets = {}
    for e in model.elements():
        span = _span(n1, [points[i - 1] for i in sorted(e)])
        if span.dim != len(e):
            raise DomainError("degenerate point subset")
        targets[e] = flag_stabilizer(g, FlagSpec(n1, [span]))
    ml = frame_levi(g, [_span(n1, [p]) for p in points])
    return StandardConfiguration(model, targets, g, ml)


def cross_configuration(g, planes) -> StandardConfiguration:
    """Admissible signed subsets of an isotropic frame of hyperbolic
    planes ↦ stabilizers of their (isotropic) spans."""
    form = entry(g).form
    if form is None:
        raise DomainError("algebra carries no defining form")
    sz = realization_size(g)
    planes = [
        (tuple(map(Q, u)), tuple(map(Q, v))) for u, v in planes
    ]
    n = len(planes)
    model = incidence_model_admissible(n)

    def line_of(i):
        u, v = planes[abs(i) - 1]
        return u if i > 0 else v

    targets = {}
    for e in model.elements():
        span = _span(sz, [line_of(i) for i in sorted(e)])
        if span.dim != len(e):
            raise DomainError("degenerate frame subset")
        f = FlagSpec(sz, [span], form=form)  # isotropy checked here
        targets[e] = flag_stabilizer(g, f)
    lines = [_span(sz, [line_of(s * i)]) for i in range(1, n + 1)
             for s in (1, -1)]
    ml = frame_levi(g, lines)
    return StandardConfiguration(model, targets, g, ml)


# ---------------------------------------------------------------------------
# the type map nu_q and projection of configurations


class _CenterStructures:
    """Structures attached to a projection center q: its Levi
    quotient with a split Cartan and simple system, the inclusion
    iota of quotient simples into base types, and nu = op ∘ iota ∘ op.
    """

    def __init__(self, q: ParabolicData, base_ss):
        self.q = q
        self.base_ss = base_ss
        self.lq = q.levi_quotient()
        self.ss0, self.iota = quotient_simple_system(base_ss, q)
        op_g = duality_involution(base_ss)
        op_q0 = duality_involution(self.ss0)
        self.nu = {b: op_g[self.iota[op_q0[b]]]
                   for b in self.ss0.simples}

    def nu_image(self):
        return frozenset(self.nu.values())

    def nu_preimage(self, types):
        return frozenset(b for b, a in self.nu.items() if a in types)

    def iota_preimage(self, types):
        return frozenset(b for b, a in self.iota.items() if a in types)


def center_structures(q: ParabolicData, base_ss=None) -> _CenterStructures:
    if base_ss is None:
        base_ss = standard_simple_system(q.ambient)
    return _CenterStructures(q, base_ss)


def project_configuration(q: ParabolicData, c: Configuration) -> Configuration:
    """Restrict the configuration along nu_q and project elementwise
    into the Levi quotient of q.

    Elements whose type survives the restriction must be weakly
    opposite to q; violators are reported.  The projected assignment
    is verified to be an incidence morphism and to obey the type law
    (quotient type = nu_q-preimage of the source type).
    """
    st = center_structures(q)
    image = st.nu_image()
    kept = []
    violators = []
    types_of = {}
    for e in c.source.elements():
        t = type_of_any(st.base_ss, c.targets[e])
        types_of[e] = t
        if not t or not t <= image:
            continue
        if not is_weakly_opposite(c.targets[e], q):
            violators.append(e)
            continue
        kept.append(e)
    if violators:
        raise DomainError(
            "elements not weakly opposite to the center: %s"
            % sorted(map(_element_label, violators))
        )
    targets0 = {}
    for e in kept:
        _, r0 = project(q, c.targets[e])
        t0 = type_of_any(st.ss0, r0)
        if t0 != st.nu_preimage(types_of[e]):
            raise InternalCheckError("projected type violates the"
                                     " nu_q type law")
        targets0[e] = r0
    sub_types = {e: c.source.types[e] for e in kept}
    sub_edges = [
        tuple(sorted(edge, key=repr)) for edge in c.source.edges
        if all(x in targets0 for x in edge)
    ]
    sub = IncidenceSystem(sub_types, sub_edges)
    return Configuration(sub, targets0, st.lq.algebra)


# ---------------------------------------------------------------------------
# reports


def _element_label(e) -> str:
    if isinstance(e, frozenset):
        def one(i):
            if isinstance(i, int) and i < 0:
                return "-%d" % -i
            return "%s" % (i,)
        return "{%s}" % ",".join(one(i) for i in sorted(e, key=_sort_key))
    return str(e)


def _sort_key(i):
    if isinstance(i, int):
        return (abs(i), 0 if i > 0 else 1)
    return (i,)


def incidence_report(c: Configuration) -> dict:
    """Per-type element lists and bipartite incidence matrices between
    consecutive types, incidence taken as costandardness of the
    assigned parabolics.  Deterministic ordering throughout."""
    types = sorted({c.source.types[e] for e in c.source.elements()},
                   key=repr)
    elements = {
        t: sorted(c.source.elements_of_type(t),
                  key=lambda e: sorted(e, key=_sort_key))
        for t in types
    }
    report = {
        "types": [str(t) for t in types],
        "elements": {
            str(t): [_element_label(e) for e in elements[t]]
            for t in types
        },
        "incidence": {},
    }
    for t1, t2 in zip(types, types[1:]):
        rows = []
        for e1 in elements[t1]:
            row = []
            for e2 in elements[t2]:
                row.append(
                    1 if is_costandard(c.targets[e1], c.targets[e2])
                    else 0
                )
            rows.append(row)
        report["incidence"]["%s:%s" % (t1, t2)] = {
            "matrix": rows,
            "row_sums": [sum(r) for r in rows],
            "col_sums": [sum(r[j] for r in rows)
                         for j in range(len(rows[0]) if rows else 0)],
        }
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def report_dot(c: Configuration) -> str:
    return to_dot(c.source)


# ---------------------------------------------------------------------------
# worked examples with fixed rational witnesses


def tetrahedron_example():
    """Coordinate simplex in dimension 4 projected from the stabilizer
    of a generic point: four points and six lines in the quotient
    plane forming a complete quadrilateral."""
    from .catalog import gl

    g = gl(4)
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    cfg = simplex_configuration(g, pts)
    q = flag_stabilizer(g, FlagSpec(4, [_span(4, [(1, 1, 1, 1)])]))
    proj = project_configuration(q, cfg)
    return cfg, q, proj


def octahedron_example():
    """Standard isotropic cross in so(4,3) projected from the
    stabilizer of a generic isotropic line: twelve points and eight
    lines in the quotient quadric."""
    from .catalog import so

    g = so(4, 3)
    sz = 7

    def unit(i):
        v = [0] * sz
        v[i] = 1
        return tuple(v)

    planes = [(unit(2 * i), unit(2 * i + 1)) for i in range(3)]
    cfg = cross_configuration(g, planes)
    # u1+u2+u3 + v1+v2-2v3 is isotropic and pairs nontrivially with
    # every frame line
    w = [1, 1, 1, 1, 1, -2, 0]
    q = flag_stabilizer(g, FlagSpec(sz, [_span(sz, [w])]))
    proj = project_configuration(q, cfg)
    return cfg, q, proj
