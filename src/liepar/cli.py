"""Command-line front end.

All numeric output is exact: rationals are serialized as "p/q"
strings.  Exit codes: 0 success, 1 domain error (with a machine-
readable error object on stdout), 2 internal consistency failure
(a provable identity was violated; never silently patched).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction as Q

from .errors import DomainError, InternalCheckError


def _parse_algebra(spec: str):
    """'gl:3', 'sl:2', 'so:3,2' -> catalog algebra."""
    from . import catalog

    if spec == "-":
        try:
            # sys.stdin is None when the process started with it closed
            data = json.load(sys.stdin) if sys.stdin else None
        except json.JSONDecodeError:
            data = None
        spec = _algebra_spec(data, "stdin")
    name, _, args = spec.partition(":")
    try:
        nums = [int(x) for x in args.split(",")] if args else []
    except ValueError:
        nums = []  # no family takes zero parameters
    # outside the try: the catalog's own DomainErrors (e.g. for sl:1)
    # reach the user as they are
    if name == "gl" and len(nums) == 1:
        return catalog.gl(nums[0])
    if name == "sl" and len(nums) == 1:
        return catalog.sl(nums[0])
    if name == "so" and len(nums) == 2:
        return catalog.so(nums[0], nums[1])
    raise DomainError("unknown algebra %r (use gl:N, sl:N, so:P,Q)"
                      % spec)


def _algebra_spec(data, what):
    """'so:3,2' from a JSON object whose 'algebra' is ["so", 3, 2]."""
    kind = data.get("algebra") if isinstance(data, dict) else None
    if not (isinstance(kind, list) and kind):
        raise DomainError("%s: expected a JSON object with an 'algebra'"
                          " list" % what)
    return "%s:%s" % (kind[0], ",".join(str(x) for x in kind[1:]))


def _frac_str(x) -> str:
    x = Q(x)
    return "%d/%d" % (x.numerator, x.denominator)


def _vec_out(v):
    return [_frac_str(x) for x in v]


def _space_out(s):
    return [_vec_out(r) for r in s.vectors()]


def _load_json(arg, what):
    """Inline JSON, or the JSON in the file named after '@'; a missing
    file or malformed JSON is a DomainError naming the input."""
    if arg.startswith("@"):
        try:
            with open(arg[1:]) as fh:
                text = fh.read()
        except OSError as e:
            raise DomainError("%s: cannot read %s (%s)"
                              % (what, arg[1:], e.strerror)) from None
        except UnicodeDecodeError:
            raise DomainError("%s: %s is not UTF-8 text"
                              % (what, arg[1:])) from None
    else:
        text = arg
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DomainError("%s: malformed JSON (%s)" % (what, e)) from None


def _vectors(data, what, dim):
    """Rational vectors of length dim from a JSON list of lists of
    integers or rational strings such as "1/10"."""
    try:
        # a string row would otherwise be read character by character
        if not all(isinstance(row, list) for row in data):
            raise TypeError("vector is not a JSON list")
        vecs = [[Q(x) for x in row] for row in data]
    except (TypeError, ValueError, ZeroDivisionError):
        raise DomainError("%s: expected a list of vectors of rationals"
                          % what) from None
    # a JSON float is binary: 0.1 would read as 3602879701896397/2**55
    inexact = [x for row in data for x in row
               if isinstance(x, (bool, float))]
    if inexact:
        raise DomainError("%s: %s is not an integer or a rational string"
                          " such as \"1/10\""
                          % (what, json.dumps(inexact[0])))
    for v in vecs:
        if len(v) != dim:
            raise DomainError("%s: vector of length %d, expected %d"
                              % (what, len(v), dim))
    return vecs


def _load_space(g, arg, what):
    """Inline JSON or @file with [[...], ...] or {"vectors": [...]}."""
    from .ratmat import Subspace

    data = _load_json(arg, what)
    if isinstance(data, dict):
        data = data.get("vectors")
    return Subspace.from_vectors(g.dim, _vectors(data, what, g.dim))


def _load_parabolic(g, arg, what):
    from .parabolic import make_parabolic

    return make_parabolic(g, _load_space(g, arg, what))


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True,
                                separators=(",", ":")))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# verbs


def cmd_make(args):
    from .catalog import entry

    g = _parse_algebra(args.algebra)
    _emit({
        "algebra": list(entry(g).kind),
        "dim": g.dim,
        "labels": list(g.labels),
        "reductive": bool(g.is_reductive()),
    })
    return 0


def cmd_check(args):
    from .parabolic import is_parabolic

    g = _parse_algebra(args.algebra)
    s = _load_space(g, args.space, "--space")
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
    p = _load_parabolic(g, args.p, "--p")
    q = _load_parabolic(g, args.q, "--q")
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
    p = _load_parabolic(g, args.space, "--space")
    from .parabolic import opposite

    op = opposite(p)
    _emit({"opposite": _space_out(op.space),
           "nilradical": _space_out(op.nilradical)})
    return 0


def cmd_levi(args):
    g = _parse_algebra(args.algebra)
    p = _load_parabolic(g, args.space, "--space")
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
    pc = _load_parabolic(g, args.space, "--space")
    word = weyl_word(ss, pc)
    _emit({"word": list(word), "length": len(word),
           "rank": len(ss.simples)})
    return 0


def cmd_delta(args):
    from .building import delta_parabolic
    from .catalog import standard_simple_system

    g = _parse_algebra(args.algebra)
    ss = standard_simple_system(g)
    pb = _load_parabolic(g, args.p, "--p")
    pc = _load_parabolic(g, args.q, "--q")
    word = delta_parabolic(pb, pc, base_ss=ss)
    _emit({"delta": list(word), "length": len(word)})
    return 0


def cmd_building(args):
    from . import building

    if args.model:
        kind, _, n = args.model.partition(":")
        try:
            n = int(n)
        except ValueError:
            kind = None
        if kind == "A":
            thin = building.apartment_model_A(n)
        elif kind == "B":
            thin = building.apartment_model_B(n)
        else:
            raise DomainError("--model must be A:n or B:n")
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
    from .catalog import FlagSpec, entry, flag_stabilizer, realization_size
    from .config import (
        cross_configuration,
        project_configuration,
        simplex_configuration,
    )
    from .ratmat import Subspace

    data = _load_json(arg, "witness")
    g = _parse_algebra(_algebra_spec(data, "witness"))
    if "center" not in data:
        raise DomainError("witness needs a 'center'")
    n = realization_size(g)
    if "points" in data:
        cfg = simplex_configuration(
            g, _vectors(data["points"], "witness points", n))
    elif "planes" in data:
        planes = [_vectors(uv, "witness planes", n)
                  for uv in data["planes"]]
        if any(len(uv) != 2 for uv in planes):
            raise DomainError("witness planes must be pairs [u, v]")
        cfg = cross_configuration(g, planes)
    else:
        raise DomainError("witness needs 'points' or 'planes'")
    center = Subspace.from_vectors(
        n, _vectors(data["center"], "witness center", n))
    # with the algebra's form, a non-isotropic center is refused as such
    q = flag_stabilizer(g, FlagSpec(n, [center], form=entry(g).form))
    return project_configuration(q, cfg)


def cmd_selftest(args):
    from . import acceptance

    ok = acceptance.run_all(report=lambda line: print(line))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: a DomainError, not argparse's exit 2
    (the internal-check code) with the usage on stderr.  Subparsers are
    built with the parser's own class, so they raise it too."""

    def error(self, message):
        raise DomainError("%s: %s" % (self.prog, message))


def build_parser():
    ap = _Parser(
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
    # an algebra and a model would each be a whole answer
    source = p.add_mutually_exclusive_group()
    source.add_argument("algebra", nargs="?", default=None)
    source.add_argument("--model", help="A:n or B:n")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--dot", action="store_true")
    out.add_argument("--table", action="store_true",
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
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.fn(args)
        except DomainError as e:
            _emit({"error": "domain", "message": str(e)})
            code = 1
        except InternalCheckError as e:
            _emit({"error": "internal-check", "message": str(e)})
            code = 2
        # a closed stdout must fail here, inside the try, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the Python signal docs: the interpreter flushes
        # stdout again at exit, so point it at devnull first
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
