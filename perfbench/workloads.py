"""The four workloads: seeded inputs, the library call one request
makes, and the outside check of its answer.

Each workload builds its inputs in ``setup``; ``requests(i)`` gives
pass ``i`` of the closed-loop stream (seeded by the workload seed and
``i``, so a pass is the same whatever the timing); ``call`` is the
timed request; ``check`` returns None or the reason the answer is
wrong.  Library functions are looked up on their modules at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from exact import (
    Realization,
    Weyl,
    conjugator,
    exp_nilpotent,
    intersect,
    rank,
    same_span,
    vectors_of,
)


class Request:
    __slots__ = ("label", "data")

    def __init__(self, label, **data):
        self.label = label
        self.data = data


def _lib():
    import liepar.building
    import liepar.catalog
    import liepar.config
    import liepar.parabolic
    import liepar.ratmat
    import liepar.rootdata

    return liepar


def _algebra(spec):
    from liepar import catalog

    kind, args = spec[0], spec[1:]
    return getattr(catalog, kind)(*args)


def _name(spec):
    return "%s%s" % (spec[0], "".join(map(str, spec[1:])))


def _simple_root_vectors(ss):
    """A vector of each simple root space.  The simple roots are positive,
    outside the standard Borel, so Σ ±v is a principal nilpotent of the
    opposite Borel: exp of it moves every proper standard parabolic, and
    its entries stay small (a dense X can push root_decomposition's
    rational-root search, trial division by every divisor of the
    constant term, to minutes)."""
    return [vectors_of(ss.rd.root_spaces[a])[0] for a in ss.simples]


def _signs(rng, n):
    return [rng.choice((-1, 1)) for _ in range(n)]


def _type_str(ss, t):
    return "{%s}" % ",".join(str(ss.simples.index(a)) for a in sorted(t))


class Recognize:
    """is_parabolic on conjugated standard parabolics (expected: parabolic,
    nil ideal = conjugated standard nilradical) and on Cartans,
    nilradicals and their conjugates (expected: not parabolic)."""

    name = "recognize"
    full = [("gl", 3), ("so", 3, 2), ("gl", 4)]
    small = [("so", 3, 2)]
    # two conjugates of each standard parabolic, each by its own
    # exponential, so a seed's draw of signs averages out within a pass
    conjugates = 2

    def setup(self, seed, tiny):
        lib = _lib()
        rng = random.Random(seed)
        self.seed = seed
        self.pool = []
        for spec in (self.small if tiny else self.full):
            g = _algebra(spec)
            ss = lib.catalog.standard_simple_system(g)
            std = lib.catalog.all_standard_parabolics(g)
            real = Realization(g)
            simple = _simple_root_vectors(ss)

            def fresh():
                return conjugator(real, simple, _signs(rng, len(simple)))[0]

            def conj(cols, vs):
                return [Realization.apply(cols, v) for v in vs]

            for J in sorted(std, key=lambda J: sorted(J)):
                pd = std[J]
                for n in range(self.conjugates):
                    cols = fresh()
                    self.pool.append(Request(
                        "%s conjugate %d of standard parabolic %s"
                        % (_name(spec), n, _type_str(ss, J)),
                        g=g, vectors=conj(cols, vectors_of(pd.space)),
                        parabolic=True, nil=conj(cols, vectors_of(pd.nilradical))))
            for kind, space in (("Cartan", ss.rd.cartan),
                                ("Borel nilradical", ss.chamber.nilradical)):
                vs = vectors_of(space)
                for tag, vecs in (("standard", vs),
                                  ("conjugated", conj(fresh(), vs))):
                    self.pool.append(Request(
                        "%s %s %s" % (_name(spec), tag, kind),
                        g=g, vectors=vecs, parabolic=False, nil=None))

    def requests(self, i):
        out = list(self.pool)
        random.Random("%d/%d" % (self.seed, i)).shuffle(out)
        return out

    def call(self, req):
        from liepar import parabolic, ratmat

        g = req.data["g"]
        ok, cert = parabolic.is_parabolic(
            g, ratmat.Subspace.from_vectors(g.dim, req.data["vectors"]))
        return ok, vectors_of(cert["nil_ideal"])

    def check(self, req, answer):
        ok, nil = answer
        if ok is not req.data["parabolic"]:
            return "is_parabolic says %s, expected %s" % (
                ok, req.data["parabolic"])
        if ok and not same_span(nil, req.data["nil"]):
            return "nil ideal is not the conjugated standard nilradical"
        return None

    def corrupt(self, req):
        return Request(req.label, **dict(req.data,
                                         parabolic=not req.data["parabolic"]))


class Project:
    """Fresh conjugates p = exp(ad x)·P of standard parabolics projected
    from repeating standard centers q: project, type_of_any, and on
    weakly opposite pairs the ν_q type law.

    Each pass meets every standard type P ``repeat`` times per algebra;
    the r-th time in pass i, the k-th type gets center (k + r + i) mod
    #centers, so consecutive passes cover every (P, q) combination and
    seeds differ only in the signs of x and the order.
    """

    name = "project"
    # (algebra, requests per type per pass).  Request cost is set by the
    # type of P; these weights put the median inside the gl(3)
    # maximal-type cluster and the tail inside the so(3,2) maximal-type
    # cluster rather than on an edge between clusters.  gl(4) requests
    # take about a second, too few per run for steady medians.
    full = [(("gl", 3), 2), (("so", 3, 2), 1)]
    small = [(("so", 3, 2), 1)]

    def setup(self, seed, tiny):
        lib = _lib()
        self.seed = seed
        self.algebras = []
        for spec, repeat in (self.small if tiny else self.full):
            g = _algebra(spec)
            ss = lib.catalog.standard_simple_system(g)
            std = lib.catalog.all_standard_parabolics(g)
            types = sorted(std, key=lambda J: sorted(J))
            # centers: the first two maximal standard parabolics
            centers = [(K, std[K], lib.config.center_structures(std[K], ss))
                       for K in [J for J in types if len(J) == 1][:2]]
            self.algebras.append(dict(
                spec=spec, g=g, ss=ss, std=std, types=types, repeat=repeat,
                real=Realization(g), centers=centers,
                simple=_simple_root_vectors(ss)))

    def requests(self, i):
        rng = random.Random("%d/%d" % (self.seed, i))
        out = []
        for alg in self.algebras:
            real, centers = alg["real"], alg["centers"]
            for r in range(alg["repeat"]):
                for k, J in enumerate(alg["types"]):
                    K, q, st = centers[(k + r + i) % len(centers)]
                    _, x, x_mat = conjugator(
                        real, alg["simple"], _signs(rng, len(alg["simple"])))
                    out.append(Request(
                        "%s p=%s q=%s" % (_name(alg["spec"]),
                                          _type_str(alg["ss"], J),
                                          _type_str(alg["ss"], K)),
                        alg=alg, J=J, P=alg["std"][J], x_mat=x_mat, x=x,
                        q=q, st=st))
        rng.shuffle(out)
        return out

    def call(self, req):
        from liepar import parabolic, rootdata

        d = req.data
        g, ss, q = d["alg"]["g"], d["alg"]["ss"], d["q"]
        p = parabolic.conjugate_parabolic(d["P"], g.exp_ad(d["x"]))
        r, r0 = parabolic.project(q, p)
        t = rootdata.type_of_any(ss, p)
        t0 = None
        if parabolic.is_weakly_opposite(p, q):
            t0 = rootdata.type_of_any(d["st"].ss0, r0)
        return (vectors_of(p.space), vectors_of(r.space),
                vectors_of(r.nilradical), t, t0)

    def check(self, req, answer):
        d = req.data
        alg = d["alg"]
        real, n = alg["real"], alg["real"].dim
        p_space, r_space, r_nil, t, t0 = answer
        x = d["x_mat"]
        cols = real.adjoint(exp_nilpotent(x),
                            exp_nilpotent([[-e for e in row] for row in x]))
        p_want = [Realization.apply(cols, v) for v in vectors_of(d["P"].space)]
        nilp = [Realization.apply(cols, v)
                for v in vectors_of(d["P"].nilradical)]
        qv, nilq = vectors_of(d["q"].space), vectors_of(d["q"].nilradical)
        if not same_span(p_space, p_want):
            return "exp(ad x)·P differs from the conjugate by exp(X)"
        if not same_span(r_space, intersect(p_want, qv, n) + nilq):
            return "criterion 2: r is not p∩q + nil(q)"
        if not same_span(r_nil, intersect(nilp, qv, n) + nilq):
            return "nil(r) is not nil(p)∩q + nil(q)"
        if t != d["J"]:
            return "type_of_any(p) is not the type of P"
        weakly_opposite = rank(p_want + qv) == n
        if weakly_opposite != (t0 is not None):
            return "weak opposition misjudged"
        if weakly_opposite and t0 != d["st"].nu_preimage(d["J"]):
            return "criterion 3: type of r0 breaks the ν_q type law"
        return None

    def corrupt(self, req):
        d = req.data
        return Request(req.label, **dict(
            d, J=d["J"] ^ {d["alg"]["ss"].simples[0]}))


SIGN_PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


class Delta:
    """delta_parabolic(B^a, C^a, base_ss) for chambers B, C of the standard
    Lie apartment and a fresh inner automorphism a that moves both; the
    expected word is the W-distance of the unconjugated pair, computed
    combinatorially.

    a = exp(ad ±e_β)·exp(ad ±e_γ) with β a root outside B and γ a root
    outside C (e_β ∉ B, e_γ ∉ C), redrawn until B^a ≠ B and C^a ≠ C, so
    every request is off the standard apartment.  Each pass meets every
    W-distance once per algebra; in pass i the k-th distance starts from
    the (k + i)-th chamber with the (k + i)-th outside roots and the
    (k + i)-th of the four sign pairs, so consecutive passes cover
    chambers, roots and signs evenly.  Seeds differ only in the redraws
    and the order: request cost varies fivefold between requests, and a
    fixed composition keeps that out of the spread between seeds.

    A single root element cannot serve: opposite chambers share no
    outside root.  Exp of a principal nilpotent does not either:
    root_decomposition's rational-root search on the common Levi can
    then run for minutes.

    Known library defect: rootdata.weyl_word checks its word with the
    reflections applied in reverse order, so delta_parabolic raises
    InternalCheckError whenever the W-distance is not an involution.
    That raise, on those requests only, is a known failure; any other
    raise is not."""

    name = "delta"
    # gl(4) requests take 1-3 s, too few per run for steady medians
    full = [("gl", 3), ("so", 3, 2)]
    small = [("gl", 3)]
    defect = ("InternalCheckError: Weyl word does not reach the target"
              " chamber")

    def setup(self, seed, tiny):
        lib = _lib()
        self.seed = seed
        self.algebras = []
        for spec in (self.small if tiny else self.full):
            g = _algebra(spec)
            ss = lib.catalog.standard_simple_system(g)
            rd = ss.rd
            weyl = Weyl(rd.roots, ss.simples, rd.pairing)
            levi = vectors_of(rd.levi)
            roots = {a: vectors_of(rd.root_spaces[a]) for a in rd.roots}
            negatives = sorted(ss.negative_roots())
            positives = sorted(set(rd.roots) - set(negatives))
            chambers = {
                e: levi + [v for a in negatives for v in roots[weyl.apply(e, a)]]
                for e in weyl.elements
            }
            # a root vector of each root outside chamber e
            outside = {e: [roots[weyl.apply(e, a)][0] for a in positives]
                       for e in weyl.elements}
            self.algebras.append(dict(
                spec=spec, g=g, ss=ss, weyl=weyl, chambers=chambers,
                outside=outside, real=Realization(g)))

    def requests(self, i):
        rng = random.Random("%d/%d" % (self.seed, i))
        out = []
        for alg in self.algebras:
            weyl, real, chambers = alg["weyl"], alg["real"], alg["chambers"]
            n = len(weyl.elements)
            for k, v in enumerate(weyl.elements):
                e1 = weyl.elements[(k + i) % n]
                e2 = weyl.compose(e1, v)
                b, c = chambers[e1], chambers[e2]
                out1, out2 = alg["outside"][e1], alg["outside"][e2]
                beta, gamma = out1[(k + i) % len(out1)], out2[(k + i) % len(out2)]
                signs = SIGN_PAIRS[(k + i) % 4]
                for _ in range(100):
                    first = conjugator(real, [beta], signs[:1])[0]
                    second = conjugator(real, [gamma], signs[1:])[0]
                    # Ad(A1·A2) = Ad(A1)∘Ad(A2)
                    cols = [Realization.apply(first, col) for col in second]
                    ba = [Realization.apply(cols, u) for u in b]
                    ca = [Realization.apply(cols, u) for u in c]
                    if not same_span(ba, b) and not same_span(ca, c):
                        break
                    beta, gamma = rng.choice(out1), rng.choice(out2)
                    signs = _signs(rng, 2)
                else:
                    raise AssertionError("no draw of a moves both chambers")
                out.append(Request(
                    "%s B=%s C=%s" % (_name(alg["spec"]), weyl.word[e1],
                                      weyl.word[e2]),
                    g=alg["g"], ss=alg["ss"], b=ba, c=ca,
                    want=weyl.distance(e1, e2),
                    known_defect=weyl.compose(v, v) != weyl.identity))
        random.Random("%d/%d/order" % (self.seed, i)).shuffle(out)
        return out

    def call(self, req):
        from liepar import building, parabolic, ratmat

        d = req.data
        g = d["g"]
        pb = parabolic.make_parabolic(g, ratmat.Subspace.from_vectors(g.dim, d["b"]))
        pc = parabolic.make_parabolic(g, ratmat.Subspace.from_vectors(g.dim, d["c"]))
        return tuple(building.delta_parabolic(pb, pc, base_ss=d["ss"]))

    def check(self, req, answer):
        if answer != req.data["want"]:
            return "delta %s, expected %s" % (answer, req.data["want"])
        return None

    def known_failure(self, req, failure):
        return req.data["known_defect"] and failure == self.defect

    def corrupt(self, req):
        return Request(req.label, **dict(req.data, known_defect=False,
                                         want=req.data["want"] + (0,)))


def _space_json(space):
    return json.dumps([[str(x) for x in v] for v in vectors_of(space)],
                      separators=(",", ":"))


class CliCold:
    """Fresh ``liepar`` processes, one per request: passes over small
    make/rootdata/check/delta/building commands in seeded order, and
    config tetrahedron once per run, untimed."""

    name = "cli_cold"

    def setup(self, seed, tiny):
        lib = _lib()
        self.seed = seed
        gl4, so32 = _algebra(("gl", 4)), _algebra(("so", 3, 2))
        borel4 = lib.catalog.standard_borel(gl4)
        ss = lib.catalog.standard_simple_system(so32)
        lower = lib.parabolic.opposite(ss.chamber)
        w = Weyl(ss.rd.roots, ss.simples, ss.rd.pairing)
        longest = max(w.elements, key=lambda e: len(w.word[e]))
        with open(os.path.join(ROOT, "src", "liepar", "golden",
                               "tetrahedron.json")) as fh:
            golden = fh.read()
        # config tetrahedron takes seconds cold: one untimed run per run,
        # checked and traced with the first pass
        self.once = [Request("config tetrahedron",
                             argv=["config", "tetrahedron"], golden=golden)]
        # weights put the median inside the check cluster and the tail
        # inside the delta cluster whatever the number of passes
        self.commands = [
            Request("make so:3,2", argv=["make", "so:3,2"], weight=1,
                    fields={"algebra": ["so", 3, 2], "dim": 10,
                            "reductive": True}),
            Request("rootdata so:3,2", argv=["rootdata", "so:3,2"], weight=1,
                    fields={"count": 8, "cartan_dim": 2}),
            Request("check gl:4 standard Borel", weight=2,
                    argv=["check", "gl:4", "--space", _space_json(borel4.space)],
                    fields={"parabolic": True, "dim": 10,
                            "conditions": [True] * 4},
                    nil=vectors_of(borel4.nilradical)),
            Request("delta so:3,2 Borel to opposite", weight=3,
                    argv=["delta", "so:3,2", "--p", _space_json(ss.chamber.space),
                          "--q", _space_json(lower.space)],
                    fields={"delta": list(w.distance(w.identity, longest)),
                            "length": len(w.word[longest])}),
            Request("building so:3,2", argv=["building", "so:3,2"], weight=1,
                    fields={"chambers": 8, "labels": ["0", "1"]}),
        ]
        if tiny:
            self.once, self.commands = [], self.commands[:2]
        self.trace_dir = None
        self.peak_rss_kb = 0

    def requests(self, i):
        out = [req for req in self.commands for _ in range(req.data["weight"])]
        random.Random("%d/%d" % (self.seed, i)).shuffle(out)
        return out

    def call(self, req):
        argv = [sys.executable, os.path.join(HERE, "cli_child.py")]
        if self.trace_dir is not None:
            # child-<n>.jsonl holds the spans of the n-th request sent
            self.count = getattr(self, "count", 0) + 1
            argv += ["--spans", os.path.join(self.trace_dir,
                                             "child-%d.jsonl" % self.count)]
        err = os.path.join(ROOT, ".perfbench", "cli-stderr-%d.txt" % os.getpid())
        with open(err, "wb") as fh:
            proc = subprocess.Popen(argv + ["--"] + req.data["argv"], cwd=ROOT,
                                    stdout=subprocess.PIPE, stderr=fh)
        try:
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 rather than wait: the child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(err, "rb") as fh:
            stderr = fh.read()
        os.remove(err)
        if proc.returncode != 0:
            raise RuntimeError("exit %d: %s" % (
                proc.returncode, (out + stderr)[-300:]))
        return out.decode()

    def check(self, req, answer):
        d = req.data
        if "golden" in d:
            if answer != d["golden"] + "\n":
                return "output differs from the golden report"
            return None
        out = json.loads(answer)
        for key, want in d["fields"].items():
            if out.get(key) != want:
                return "%s is %r, expected %r" % (key, out.get(key), want)
        if "nil" in d:
            from fractions import Fraction

            got = [[Fraction(x) for x in v] for v in out["nilradical"]]
            if not same_span(got, d["nil"]):
                return "nilradical is not the strictly upper triangle"
        return None

    def corrupt(self, req):
        d = req.data
        if "golden" in d:
            return Request(req.label, **dict(d, golden=d["golden"] + " "))
        key = next(iter(d["fields"]))
        return Request(req.label, **dict(d, fields=dict(d["fields"],
                                                        **{key: None})))


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {w.name: w for w in (Recognize, Project, Delta, CliCold)}
