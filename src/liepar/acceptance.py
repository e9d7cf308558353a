"""Self-contained acceptance checks: nine exact criteria covering the
recognizer, projection and type laws, root data, Weyl/Bruhat
combinatorics, duality, lowest-weight lines, configuration goldens,
and the algebraic property suites.

Each criterion function returns (ok: bool, detail: str) and uses a
fixed RNG seed, so the whole battery is deterministic.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction as Q
from math import factorial

from .building import (
    apartment_model_A,
    apartment_model_B,
    delta_parabolic,
    ec_reconstruction_isomorphic,
    labelled_isomorphism,
    lie_apartment,
)
from .catalog import (
    all_standard_parabolics,
    element_from_matrix,
    entry,
    gl,
    incidence_model_admissible,
    incidence_model_subsets,
    so,
    standard_borel,
    standard_minimal_levi,
    standard_simple_system,
)
from .config import (
    center_structures,
    incidence_report,
    octahedron_example,
    report_json,
    tetrahedron_example,
)
from .errors import DomainError, InternalCheckError
from .parabolic import (
    conjugate_parabolic,
    is_costandard,
    is_parabolic,
    is_weakly_opposite,
    lowest_weight_line,
    opposite,
    project,
)
from .ratmat import Matrix, Subspace, lincomb, vec_is_zero
from .rootdata import duality_involution, type_of_any

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SEED = 20240917


def _rand_vec(rng, basis, lo=-2, hi=2):
    """A nonzero combination of the basis with coefficients drawn
    from [lo, hi]."""
    while True:
        v = lincomb([rng.randint(lo, hi) for _ in basis], basis,
                    len(basis[0]))
        if not vec_is_zero(v):
            return v


def _rand_nil(rng, g, pb):
    return _rand_vec(rng, pb.nilradical.vectors())


def _rand_auto(rng, g, pb):
    return g.exp_ad(_rand_nil(rng, g, pb))


def _sample_algebras():
    return [("gl3", gl(3)), ("gl4", gl(4)), ("so32", so(3, 2))]


# ---------------------------------------------------------------------------


def criterion_1():
    """Recognizer equivalence on standard parabolics, conjugates, and
    curated negatives."""
    rng = random.Random(SEED)
    conjugates_left = 50
    for name, g in _sample_algebras():
        pb = standard_borel(g)
        std = all_standard_parabolics(g)
        for J, pd in sorted(std.items(), key=lambda kv: repr(kv[0])):
            ok, cert = is_parabolic(g, pd.space)
            if not (ok and all(cert["conditions"])):
                return False, "%s standard %s fails" % (name, sorted(J))
        spaces = [pd.space for pd in std.values()]
        take = {"gl3": 16, "gl4": 18, "so32": 16}[name]
        for _ in range(take):
            if conjugates_left == 0:
                break
            a = _rand_auto(rng, g, pb)
            s = g.apply_auto(a, rng.choice(spaces))
            ok, cert = is_parabolic(g, s)
            if not (ok and all(cert["conditions"])):
                return False, "%s conjugate fails" % name
            conjugates_left -= 1
    if conjugates_left != 0:
        return False, "conjugate sample short by %d" % conjugates_left
    # negatives: Cartans, nilradicals, and the compact so(2)+so(2)
    # diagonal Cartan of so(3,2)
    negatives = []
    for name, g in _sample_algebras():
        _, rd = standard_minimal_levi(g)
        negatives.append((name + " cartan", g, rd.cartan))
        negatives.append(
            (name + " nilradical", g, standard_borel(g).nilradical)
        )
    gso = so(3, 2)
    s = entry(gso).form
    sz = 5

    def rot(x, y):
        cx = [Q(c) for c in x] + [Q(0)] * (sz - len(x))
        cy = [Q(c) for c in y] + [Q(0)] * (sz - len(y))
        m = Matrix([[cx[i] * cy[j] - cy[i] * cx[j] for j in range(sz)]
                    for i in range(sz)]) * s
        return element_from_matrix(gso, m)

    compact = Subspace.from_vectors(gso.dim, [
        rot([1, 1, 0, 0], [0, 0, 1, 1]),
        rot([1, -1, 0, 0], [0, 0, 1, -1]),
    ])
    negatives.append(("so32 compact cartan", gso, compact))
    for label, g, space in negatives:
        ok, cert = is_parabolic(g, space)
        if ok or any(cert["conditions"]):
            return False, "negative %s not rejected" % label
    return True, "4+8+4 standard, 50 conjugates, %d negatives" % \
        len(negatives)


def criterion_2():
    """Projection law r = p∩q + nil(q) on 100 sampled conjugated
    pairs (the law and the nilradical identity are asserted inside
    project; any violation raises)."""
    rng = random.Random(SEED + 1)
    total = 0
    for name, g, count in [("gl4", gl(4), 50), ("so32", so(3, 2), 50)]:
        pb = standard_borel(g)
        std = sorted(all_standard_parabolics(g).items(),
                     key=lambda kv: repr(sorted(map(repr, kv[0]))))
        spaces = [pd for _, pd in std]
        for _ in range(count):
            p = conjugate_parabolic(rng.choice(spaces),
                                    _rand_auto(rng, g, pb))
            q = conjugate_parabolic(rng.choice(spaces),
                                    _rand_auto(rng, g, pb))
            r, r0 = project(q, p)
            if r.space != p.space.intersect(q.space).sum(q.nilradical):
                return False, "%s projection space law fails" % name
            if r.nilradical != \
                    p.nilradical.intersect(q.space).sum(q.nilradical):
                return False, "%s projection nil law fails" % name
            total += 1
    return True, "%d sampled pairs" % total


def criterion_3():
    """Type transformation laws under projection: nu_q-preimage on
    weakly opposite pairs, iota_q-preimage on costandard pairs."""
    rng = random.Random(SEED + 2)
    checked_w = checked_c = 0
    for name, g in [("gl3", gl(3)), ("so32", so(3, 2))]:
        ss = standard_simple_system(g)
        pb = standard_borel(g)
        std = sorted(all_standard_parabolics(g).items(),
                     key=lambda kv: repr(sorted(map(repr, kv[0]))))
        for J, qd in std:
            st = center_structures(qd, ss)
            # weakly opposite samples: conjugates of standard
            # parabolics, skipping non-weakly-opposite draws
            hits = 0
            attempts = 0
            while hits < 3 and attempts < 20:
                attempts += 1
                _, pd0 = rng.choice(std)
                p = conjugate_parabolic(pd0, _rand_auto(rng, g, pb))
                if not is_weakly_opposite(p, qd):
                    continue
                t = type_of_any(ss, p)
                _, r0 = project(qd, p)
                t0 = type_of_any(st.ss0, r0)
                if t0 != st.nu_preimage(t):
                    return False, "%s nu law fails at %s" % (name, sorted(J))
                hits += 1
                checked_w += 1
            # costandard samples: standard parabolics over the same
            # Borel are costandard with q
            for _, pd0 in rng.sample(std, 3):
                if not is_costandard(pd0, qd):
                    return False, "%s standard pair not costandard" % name
                t = type_of_any(ss, pd0)
                _, r0 = project(qd, pd0)
                t0 = type_of_any(st.ss0, r0)
                if t0 != st.iota_preimage(t):
                    return False, "%s iota law fails at %s" % (name, sorted(J))
                checked_c += 1
    return True, "%d weakly-opposite + %d costandard checks" % \
        (checked_w, checked_c)


def criterion_4():
    """Restricted root data: counts, root-space dimensions, coroot
    normalization and integrality."""
    for n in (1, 2, 3):
        g = gl(n + 1)
        _, rd = standard_minimal_levi(g)
        if len(rd.roots) != n * (n + 1):
            return False, "gl%d root count" % (n + 1)
        if any(rd.root_spaces[a].dim != 1 for a in rd.roots):
            return False, "gl%d root space dims" % (n + 1)
        if len(standard_simple_system(g).simples) != n:
            return False, "gl%d rank" % (n + 1)
    g = so(3, 2)
    _, rd = standard_minimal_levi(g)
    if len(rd.roots) != 8 or rd.levi.dim + sum(
            rd.root_spaces[a].dim for a in rd.roots) != 10:
        return False, "so(3,2) decomposition"
    g = so(4, 3)
    _, rd = standard_minimal_levi(g)
    if len(rd.roots) != 18:
        return False, "so(4,3) root count"
    # the short roots ±e_i are the ones with exactly one nonzero value
    short = [a for a in rd.roots
             if sum(1 for c in a if c) == 1 and any(abs(c) == 1 for c in a)]
    shorts = [a for a in short if all(c in (0, 1, -1) for c in a)]
    if len(shorts) != 6 or any(rd.root_spaces[a].dim != 1 for a in shorts):
        return False, "so(4,3) short root spaces"
    if rd.levi.dim + sum(rd.root_spaces[a].dim for a in rd.roots) != 21:
        return False, "so(4,3) dimension count"
    for _, g in _sample_algebras() + [("so43", so(4, 3))]:
        _, rd = standard_minimal_levi(g)
        for a in rd.roots:
            if rd.eval_root(a, rd.coroots[a]) != 2:
                return False, "coroot normalization"
            for b in rd.roots:
                if rd.pairing(b, a).denominator != 1:
                    return False, "pairing integrality"
    return True, "gl2..gl4, so(3,2), so(4,3) root data exact"


def criterion_5():
    """Apartment counts, labelled isomorphisms, standard-parabolic
    counts, longest-word lengths, and conjugation invariance of the
    W-distance."""
    rng = random.Random(SEED + 3)
    for n in (1, 2, 3):
        a = apartment_model_A(n)
        if len(a.chambers) != factorial(n + 1):
            return False, "A(%d) chamber count" % n
        b = apartment_model_B(n)
        if len(b.chambers) != (1 << n) * factorial(n):
            return False, "B(%d) chamber count" % n
        for thin in (a, b):
            for label, parts in thin.cs.panels.items():
                if any(len(p) != 2 for p in parts):
                    return False, "panel size"
    pairs = [
        (gl(2), apartment_model_A(1)),
        (gl(3), apartment_model_A(2)),
        (gl(4), apartment_model_A(3)),
        (so(3, 2), apartment_model_B(2)),
        (so(4, 3), apartment_model_B(3)),
    ]
    for g, model in pairs:
        _, rd = standard_minimal_levi(g)
        apt = lie_apartment(g, rd)
        if labelled_isomorphism(apt.thin, model) is None:
            return False, "lie apartment not isomorphic to model"
    for name, g in [("gl3", gl(3)), ("so32", so(3, 2))]:
        ss = standard_simple_system(g)
        std = all_standard_parabolics(g)
        if len(std) != 1 << len(ss.simples):
            return False, "%s standard parabolic count" % name
        if len({pd.space for pd in std.values()}) != len(std):
            return False, "%s standard parabolics not distinct" % name
        pb = ss.chamber
        lower = opposite(pb)
        want_len = {"gl3": 3, "so32": 4}[name]
        d0 = delta_parabolic(pb, lower, base_ss=ss)
        if len(d0) != want_len:
            return False, "%s longest-word length %d" % (name, len(d0))
        for _ in range(20):
            a = _rand_auto(rng, g, pb)
            d = delta_parabolic(conjugate_parabolic(pb, a),
                                conjugate_parabolic(lower, a),
                                base_ss=ss)
            if d != d0:
                return False, "%s delta not conjugation invariant" % name
    return True, "models A/B n<=3, five lie apartments, 40 conjugations"


def criterion_6():
    """Duality involution: order reversal for gl, identity for so,
    involutive always."""
    for n in (1, 2, 3):
        ss = standard_simple_system(gl(n + 1))
        op = duality_involution(ss)
        order = list(ss.simples)
        for i, a in enumerate(order):
            if op[a] != order[n - 1 - i]:
                return False, "gl%d op does not reverse types" % (n + 1)
        if any(op[op[a]] != a for a in ss.simples):
            return False, "gl%d op not involutive" % (n + 1)
    for p, q in ((3, 2), (4, 3)):
        ss = standard_simple_system(so(p, q))
        op = duality_involution(ss)
        if any(op[a] != a for a in ss.simples):
            return False, "so(%d,%d) op not identity" % (p, q)
        if any(op[op[a]] != a for a in ss.simples):
            return False, "so op not involutive"
    return True, "gl reverses, so is the identity, op^2 = id"


def criterion_7():
    """Lowest-weight lines: the exterior-power stabilizer equals the
    parabolic."""
    count = 0
    targets = []
    for g in (gl(2), gl(3)):
        targets.extend(all_standard_parabolics(g).values())
    targets.append(standard_borel(so(3, 2)))
    for pd in targets:
        _, _, stab = lowest_weight_line(pd)
        if stab != pd.space:
            return False, "stabilizer mismatch"
        count += 1
    return True, "%d exterior-power stabilizers" % count


def criterion_8():
    """Configuration goldens: byte-identical incidence reports for the
    tetrahedron and octahedron projections."""
    for name, make in (("tetrahedron", tetrahedron_example),
                       ("octahedron", octahedron_example)):
        _, _, proj = make()
        got = report_json(incidence_report(proj))
        path = os.path.join(GOLDEN_DIR, name + ".json")
        with open(path, "rb") as fh:
            want = fh.read().decode("utf-8")
        if got != want:
            return False, "%s report differs from golden" % name
    return True, "tetrahedron 4x6 and octahedron 12x8 byte-identical"


def criterion_9():
    """Property suites: validation, nilpotency of form-radicals,
    exp_ad automorphisms, transporter/perp identity, and coresidue
    reconstruction."""
    rng = random.Random(SEED + 4)
    for _, g in _sample_algebras() + [("so43", so(4, 3))]:
        g._validate()  # antisymmetry + Jacobi + realization agreement
    gs = [gl(3), so(3, 2)]
    basis = {id(g): [g.basis_element(i) for i in range(g.dim)]
             for g in gs}

    def rand_space(g, k):
        return Subspace.from_vectors(
            g.dim, [_rand_vec(rng, basis[id(g)]) for _ in range(k)]
        )

    for i in range(100):
        g = gs[i % 2]
        s = rand_space(g, rng.randint(1, 3))
        u = g.transporter(s, s)
        if not g.is_subalgebra(u):
            return False, "transporter(s,s) not a subalgebra"
        r = u.intersect(g.perp(u))
        for v in r.vectors():
            if not g.in_nilpotent_cone(v):
                return False, "form-radical element not nilpotent"
    for i in range(100):
        g = gs[i % 2]
        pb = standard_borel(g)
        x = _rand_nil(rng, g, pb)
        g.check_automorphism(g.exp_ad(x))  # bracket + form preservation
    for i in range(100):
        g = gs[i % 2]
        s = rand_space(g, rng.randint(1, 3))
        t = rand_space(g, rng.randint(1, 3))
        lhs = g.transporter(s, g.perp(t))
        rhs = g.perp(g.bracket_spaces(s, t))
        if lhs != rhs:
            return False, "transporter/perp identity fails"
    for gamma in (incidence_model_subsets(2), incidence_model_subsets(3),
                  incidence_model_admissible(2)):
        if not ec_reconstruction_isomorphic(gamma):
            return False, "coresidue reconstruction fails"
    return True, "validation, 300 samples, 3 reconstructions"


CRITERIA = [
    ("recognizer equivalence", criterion_1),
    ("projection law", criterion_2),
    ("type laws", criterion_3),
    ("root data", criterion_4),
    ("Weyl/Bruhat combinatorics", criterion_5),
    ("duality involution", criterion_6),
    ("lowest-weight line", criterion_7),
    ("configuration goldens", criterion_8),
    ("algebraic property suites", criterion_9),
]


def run_all(report=print):
    """Run every criterion and report one line each, ending with its
    wall time."""
    ok_all = True
    for i, (name, fn) in enumerate(CRITERIA, 1):
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except (DomainError, InternalCheckError) as e:
            ok, detail = False, "%s: %s" % (type(e).__name__, e)
        ok_all = ok_all and ok
        report("criterion %d (%s): %s - %s [%.2f s]"
               % (i, name, "PASS" if ok else "FAIL", detail,
                  time.perf_counter() - start))
    return ok_all
