"""Outside-in tracing of the liepar layers.

Timing wrappers are installed from here around the public functions of
each layer; no liepar file is edited.  Module functions are rebound in
every loaded ``liepar`` module that imported them with ``from .x import
f``; methods are replaced on their class.  Spans are kept in memory as
``[name, start, end, parent, request, key, entries]`` and aggregated,
or written out as JSON lines, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, function, module, attribute); the attribute may be
# "Class.method".  ratmat.rref is the Gauss-Jordan elimination under
# rref/kernel/solve/span; catalog.construct counts gl/sl/so cache misses.
TARGETS = [
    ("ratmat", "matmul", "liepar.ratmat", "Matrix.__mul__"),
    ("ratmat", "mulvec", "liepar.ratmat", "Matrix.mulvec"),
    ("ratmat", "kernel", "liepar.ratmat", "kernel"),
    ("ratmat", "solve", "liepar.ratmat", "solve"),
    ("ratmat", "rref", "liepar.ratmat", "_rref_rows"),
    ("ratmat", "span", "liepar.ratmat", "Subspace.from_vectors"),
    ("ratmat", "intersect", "liepar.ratmat", "Subspace.intersect"),
    ("ratmat", "sum", "liepar.ratmat", "Subspace.sum"),
    ("ratmat", "perp", "liepar.ratmat", "Subspace.perp"),
    ("ratmat", "reduce", "liepar.ratmat", "Subspace.reduce"),
    ("liealg", "exp_ad", "liepar.liealg", "LieAlgebra.exp_ad"),
    ("liealg", "minimal_polynomial", "liepar.liealg", "minimal_polynomial"),
    ("liealg", "transporter", "liepar.liealg", "LieAlgebra.transporter"),
    ("liealg", "bracket_spaces", "liepar.liealg", "LieAlgebra.bracket_spaces"),
    ("liealg", "induced_filtration", "liepar.liealg",
     "LieAlgebra.induced_filtration"),
    ("liealg", "restrict", "liepar.liealg", "LieAlgebra.restrict"),
    ("liealg", "quotient_algebra", "liepar.liealg",
     "LieAlgebra.quotient_algebra"),
    ("liealg", "from_matrices", "liepar.liealg", "LieAlgebra.from_matrices"),
    ("parabolic", "is_parabolic", "liepar.parabolic", "is_parabolic"),
    ("parabolic", "grading_lift", "liepar.parabolic", "grading_lift"),
    ("parabolic", "project", "liepar.parabolic", "project"),
    ("parabolic", "common_levi", "liepar.parabolic", "common_levi"),
    ("parabolic", "opposite", "liepar.parabolic", "opposite"),
    ("parabolic", "levi_quotient", "liepar.parabolic", "LeviQuotient.__init__"),
    ("rootdata", "type_of_any", "liepar.rootdata", "type_of_any"),
    ("rootdata", "levi_transport", "liepar.rootdata", "levi_transport"),
    ("rootdata", "root_decomposition", "liepar.rootdata", "root_decomposition"),
    ("rootdata", "simple_system", "liepar.rootdata", "simple_system"),
    ("rootdata", "standardize_type", "liepar.rootdata", "standardize_type"),
    ("building", "delta_parabolic", "liepar.building", "delta_parabolic"),
    ("building", "canonical_word", "liepar.building", "canonical_word"),
    ("building", "lie_apartment", "liepar.building", "lie_apartment"),
    ("catalog", "construct", "liepar.catalog", "gl"),
    ("catalog", "construct", "liepar.catalog", "sl"),
    ("catalog", "construct", "liepar.catalog", "so"),
    ("catalog", "standard_simple_system", "liepar.catalog",
     "standard_simple_system"),
    ("config", "project_configuration", "liepar.config",
     "project_configuration"),
    ("config", "center_structures", "liepar.config", "center_structures"),
    ("config", "incidence_report", "liepar.config", "incidence_report"),
    ("cli", "main", "liepar.cli", "main"),
]

LAYERS = ["ratmat", "liealg", "parabolic", "rootdata", "building", "catalog",
          "config", "cli"]

FUNCTIONS = list(dict.fromkeys((layer, fn) for layer, fn, _, _ in TARGETS))

# argument sets behind the distinct_frac reuse ratios
DISTINCT = ["liealg.induced_filtration", "parabolic.grading_lift",
            "parabolic.common_levi"]

ENTRIES = {
    # Σ rows×cols of the matrix handed to kernel / of the product
    "ratmat.kernel": lambda a, k: a[0].rows * a[0].cols,
    "ratmat.matmul": lambda a, k: a[0].rows * a[1].cols,
}


def _value_key(x):
    """Hashable identity of an argument: parabolics by (ambient, space),
    algebras by identity, vectors as tuples."""
    space = getattr(x, "space", None)
    if space is not None and hasattr(x, "ambient"):
        return (id(x.ambient), space)
    if hasattr(x, "structure"):
        return id(x)
    if isinstance(x, list):
        return tuple(x)
    return x


def _args_key(args, kwargs):
    return (tuple(_value_key(a) for a in args),
            tuple(sorted((k, _value_key(v)) for k, v in kwargs.items())))


class Tracer:
    """Collects spans from the wrappers it installs; ``request`` is the
    id stamped on new spans."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []

    def _wrap(self, name, fn, is_cache=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        want_key = name in DISTINCT
        entries = ENTRIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.request,
                   _args_key(args, kwargs) if want_key else None,
                   entries(args, kwargs) if entries else None]
            if is_cache:
                misses = fn.cache_info().misses
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if is_cache and fn.cache_info().misses == misses:
                    rec[0] = None  # a cache hit constructs nothing

        return wrapper

    def install(self):
        """Wrap every target; liepar must already be imported."""
        import liepar.catalog  # noqa: F401  (loads every layer module)
        import liepar.cli  # noqa: F401
        import liepar.config  # noqa: F401

        loaded = [m for n, m in list(sys.modules.items())
                  if n == "liepar" or n.startswith("liepar.")]
        for layer, fn, module, attr in TARGETS:
            name = "%s.%s" % (layer, fn)
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig,
                                 is_cache=hasattr(orig, "cache_info"))
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def records(self, requests=None):
        """Finished spans as dicts, restricted to the given request ids;
        parents are re-indexed within the selection."""
        keep = [i for i, s in enumerate(self.spans)
                if s[0] is not None and (requests is None or s[4] in requests)]
        pos = {i: j for j, i in enumerate(keep)}
        out = []
        for i in keep:
            name, t0, t1, parent, rid, key, entries = self.spans[i]
            while parent >= 0 and parent not in pos:
                parent = self.spans[parent][3]
            out.append({"name": name, "start": t0, "end": t1,
                        "parent": pos.get(parent, -1), "request": rid,
                        "key": None if key is None else hash(key),
                        "entries": entries})
        return out


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r, separators=(",", ":")))
            fh.write("\n")


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(records, request_wall_s: float, n_requests: int) -> dict:
    """Per-layer metrics from span records: calls and self time per
    function, Σ entries for kernel and matmul, each layer's self share
    of request wall time, and the reuse ratios.

    ``records`` may concatenate several processes' spans; each process's
    parent indices are local, so every record carries an ``offset``
    (default 0) added to its parent index.
    """
    n = len(records)
    child_time = [0.0] * n
    for r in records:
        if r["parent"] >= 0:
            child_time[r["parent"] + r.get("offset", 0)] += r["end"] - r["start"]
    calls, self_s, entries, keys = {}, {}, {}, {}
    for i, r in enumerate(records):
        name = r["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (r["end"] - r["start"]
                                                - child_time[i])
        if r["entries"] is not None:
            entries[name] = entries.get(name, 0) + r["entries"]
        if r["key"] is not None:
            keys.setdefault(name, set()).add((r.get("offset", 0), r["key"]))
    m = {}
    for layer, fn in FUNCTIONS:
        name = "%s.%s" % (layer, fn)
        m[name + ".calls"] = (calls.get(name, 0), "count")
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for name in ENTRIES:
        m[name + ".entries"] = (entries.get(name, 0), "count")
    for layer in LAYERS:
        own = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m[layer + ".self_share"] = (own / request_wall_s if request_wall_s
                                    else 0.0, "frac")
    for name in DISTINCT:
        c = calls.get(name, 0)
        m[name + ".distinct_frac"] = (len(keys.get(name, ())) / c if c else 0.0,
                                      "frac")
    m["parabolic.is_parabolic.per_request"] = (
        calls.get("parabolic.is_parabolic", 0) / max(n_requests, 1),
        "1/request")
    return m
