"""Command-line front end.

All numeric output is exact: rationals are serialized as "p/q"
strings.  Exit codes: 0 success, 1 domain error (with a machine-
readable error object on stdout), 2 internal consistency failure
(a provable identity was violated; never silently patched).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction as Q

from .errors import DomainError, InternalCheckError


def _parse_algebra(spec: str):
    """'gl:3', 'sl:2', 'so:3,2' -> catalog algebra."""
    from . import catalog

    if spec == "-":
        data = json.load(sys.stdin)
        kind = data["algebra"]
        spec = "%s:%s" % (kind[0], ",".join(str(x) for x in kind[1:]))
    try:
        name, _, args = spec.partition(":")
        nums = [int(x) for x in args.split(",")] if args else []
        if name == "gl" and len(nums) == 1:
            return catalog.gl(nums[0])
        if name == "sl" and len(nums) == 1:
            return catalog.sl(nums[0])
        if name == "so" and len(nums) == 2:
            return catalog.so(nums[0], nums[1])
    except ValueError:
        pass
    raise DomainError("unknown algebra %r (use gl:N, sl:N, so:P,Q)"
                      % spec)


def _frac_str(x) -> str:
    x = Q(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _parse_frac(s) -> Q:
    if isinstance(s, str):
        return Q(s)
    return Q(s)


def _vec_out(v):
    return [_frac_str(x) for x in v]


def _space_out(s):
    return [_vec_out(r) for r in s.vectors()]


def _load_vectors(arg):
    """Inline JSON or @file with {"vectors": [[...], ...]}."""
    if arg.startswith("@"):
        with open(arg[1:]) as fh:
            data = json.load(fh)
    else:
        data = json.loads(arg)
    if isinstance(data, dict):
        data = data["vectors"]
    return [[_parse_frac(x) for x in row] for row in data]


def _load_space(g, arg):
    from .ratmat import Subspace

    return Subspace.from_vectors(g.dim, _load_vectors(arg))


def _load_parabolic(g, arg):
    from .parabolic import make_parabolic

    return make_parabolic(g, _load_space(g, arg))


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True,
                                separators=(",", ":")))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# verbs


def cmd_make(args):
    g = _parse_algebra(args.algebra)
    _emit({
        "algebra": list(g.kind),
        "dim": g.dim,
        "labels": list(g.labels),
        "reductive": bool(g.is_reductive()),
    })
    return 0


def cmd_check(args):
    from .parabolic import is_parabolic

    g = _parse_algebra(args.algebra)
    s = _load_space(g, args.space)
    ok, cert = is_parabolic(g, s)
    _emit({
        "parabolic": ok,
        "conditions": list(cert["conditions"]),
        "dim": s.dim,
        "nilradical": _space_out(cert["nil_ideal"]),
    })
    return 0


def cmd_project(args):
    g = _parse_algebra(args.algebra)
    p = _load_parabolic(g, args.p)
    q = _load_parabolic(g, args.q)
    from .parabolic import project

    r, r0 = project(q, p)
    _emit({
        "r": _space_out(r.space),
        "r_nilradical": _space_out(r.nilradical),
        "r0_dim": r0.dim,
        "r0": _space_out(r0.space),
    })
    return 0


def cmd_opposite(args):
    g = _parse_algebra(args.algebra)
    p = _load_parabolic(g, args.space)
    from .parabolic import opposite

    op = opposite(p)
    _emit({"opposite": _space_out(op.space),
           "nilradical": _space_out(op.nilradical)})
    return 0


def cmd_levi(args):
    g = _parse_algebra(args.algebra)
    p = _load_parabolic(g, args.space)
    lq = p.levi_quotient()
    _emit({
        "dim": lq.algebra.dim,
        "nilradical_dim": p.nilradical.dim,
        "gram": [_vec_out(r) for r in lq.algebra.form.gram.data],
    })
    return 0


def cmd_rootdata(args):
    from .catalog import standard_minimal_levi

    g = _parse_algebra(args.algebra)
    _, rd = standard_minimal_levi(g)
    roots = sorted(rd.roots)
    _emit({
        "cartan_dim": rd.cartan.dim,
        "levi_dim": rd.levi.dim,
        "roots": [
            {
                "value": _vec_out(a),
                "space_dim": rd.root_spaces[a].dim,
                "coroot": _vec_out(rd.coroots[a]),
            }
            for a in roots
        ],
        "count": len(roots),
    })
    return 0


def cmd_weyl(args):
    from .catalog import standard_simple_system
    from .rootdata import weyl_word

    g = _parse_algebra(args.algebra)
    ss = standard_simple_system(g)
    pc = _load_parabolic(g, args.space)
    word = weyl_word(ss, pc)
    _emit({"word": list(word), "length": len(word),
           "rank": len(ss.simples)})
    return 0


def cmd_delta(args):
    from .building import delta_parabolic
    from .catalog import standard_simple_system

    g = _parse_algebra(args.algebra)
    ss = standard_simple_system(g)
    pb = _load_parabolic(g, args.p)
    pc = _load_parabolic(g, args.q)
    word = delta_parabolic(pb, pc, base_ss=ss)
    _emit({"delta": list(word), "length": len(word)})
    return 0


def cmd_building(args):
    from . import building

    if args.model:
        kind, _, n = args.model.partition(":")
        n = int(n)
        if kind == "A":
            thin = building.apartment_model_A(n)
        elif kind == "B":
            thin = building.apartment_model_B(n)
        else:
            raise DomainError("model must be A:n or B:n")
    else:
        from .catalog import standard_minimal_levi

        if args.algebra is None:
            raise DomainError("need an algebra or --model")
        g = _parse_algebra(args.algebra)
        _, rd = standard_minimal_levi(g)
        thin = building.lie_apartment(g, rd).thin
    if args.dot:
        sys.stdout.write(building.to_dot(thin))
        sys.stdout.write("\n")
        return 0
    out = {"chambers": len(thin.chambers),
           "labels": [str(x) for x in thin.labels()]}
    if args.table:
        wd = building.w_distance(thin)
        out["delta"] = {
            building._dot_name(b): {
                building._dot_name(c): list(map(str, wd.delta(b, c)))
                for c in thin.chambers
            }
            for b in thin.chambers
        }
    _emit(out)
    return 0


def cmd_config(args):
    from .config import (
        incidence_report,
        octahedron_example,
        report_dot,
        report_json,
        tetrahedron_example,
    )

    if args.witness == "tetrahedron":
        _, _, proj = tetrahedron_example()
    elif args.witness == "octahedron":
        _, _, proj = octahedron_example()
    else:
        proj = _config_from_witness(args.witness)
    if args.dot:
        sys.stdout.write(report_dot(proj))
        sys.stdout.write("\n")
        return 0
    sys.stdout.write(report_json(incidence_report(proj)))
    sys.stdout.write("\n")
    return 0


def _config_from_witness(arg):
    """Witness JSON: {"algebra": [...], "points": [...]} or
    {"algebra": [...], "planes": [[u,v],...]}, plus "center":
    vectors spanning the subspace whose stabilizer is the center."""
    from .building import IncidenceSystem  # noqa: F401  (schema dep)
    from .catalog import _action_stabilizer
    from .config import (
        cross_configuration,
        project_configuration,
        simplex_configuration,
    )
    from .parabolic import make_parabolic
    from .ratmat import Subspace

    if arg.startswith("@"):
        with open(arg[1:]) as fh:
            data = json.load(fh)
    else:
        data = json.loads(arg)
    g = _parse_algebra("%s:%s" % (
        data["algebra"][0],
        ",".join(str(x) for x in data["algebra"][1:]),
    ))
    if "points" in data:
        cfg = simplex_configuration(
            g, [[_parse_frac(x) for x in p] for p in data["points"]]
        )
    elif "planes" in data:
        cfg = cross_configuration(
            g,
            [([_parse_frac(x) for x in u], [_parse_frac(x) for x in v])
             for u, v in data["planes"]],
        )
    else:
        raise DomainError("witness needs 'points' or 'planes'")
    center = Subspace.from_vectors(
        g.defining_dim,
        [[_parse_frac(x) for x in v] for v in data["center"]],
    )
    q = make_parabolic(g, _action_stabilizer(g, [center]))
    return project_configuration(q, cfg)


def cmd_selftest(args):
    from . import acceptance

    ok = acceptance.run_all(report=lambda line: print(line))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="liepar",
        description="exact-arithmetic parabolic subalgebras, root"
                    " data, and chamber systems",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("make", help="construct a catalog algebra")
    p.add_argument("algebra")
    p.set_defaults(fn=cmd_make)

    p = sub.add_parser("check", help="parabolic recognizer")
    p.add_argument("algebra")
    p.add_argument("--space", required=True,
                   help="JSON vectors or @file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("project", help="parabolic projection")
    p.add_argument("algebra")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("opposite", help="opposite parabolic")
    p.add_argument("algebra")
    p.add_argument("--space", required=True)
    p.set_defaults(fn=cmd_opposite)

    p = sub.add_parser("levi", help="Levi quotient data")
    p.add_argument("algebra")
    p.add_argument("--space", required=True)
    p.set_defaults(fn=cmd_levi)

    p = sub.add_parser("rootdata", help="restricted root datum")
    p.add_argument("algebra")
    p.set_defaults(fn=cmd_rootdata)

    p = sub.add_parser("weyl", help="Weyl word to a minimal parabolic")
    p.add_argument("algebra")
    p.add_argument("--space", required=True)
    p.set_defaults(fn=cmd_weyl)

    p = sub.add_parser("delta", help="W-distance between minimal"
                                     " parabolics")
    p.add_argument("algebra")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("building", help="apartment models and lie"
                                        " apartments")
    p.add_argument("algebra", nargs="?", default=None)
    p.add_argument("--model", help="A:n or B:n")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--table", action="store_true",
                   help="include the full delta table")
    p.set_defaults(fn=cmd_building)

    p = sub.add_parser("config", help="project a configuration")
    p.add_argument("witness",
                   help="'tetrahedron', 'octahedron', JSON, or @file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_config)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as e:
        _emit({"error": "domain", "message": str(e)})
        return 1
    except InternalCheckError as e:
        _emit({"error": "internal-check", "message": str(e)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
