"""Per-layer tracing installed from the benchmark's side.

`install(tracer)` wraps the layer functions of the library in place: module
functions in every `danielewski` module namespace that holds them (a
`from .ring import from_chart` copies the name), and methods on their
classes.  Each wrapped call is a span with a name, start, end, parent and
op id.  Self time is the span's duration minus that of its wrapped children.

Spans of the hot ring- and field-level calls (millions in one run) are only
aggregated (count, total, self time); every other span is also kept as a
record and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute, span name, keep records)
FUNCTIONS = (
    ("ring", "poly_divrem", "ring.poly_divrem", False),
    ("ring", "to_chart", "ring.chart", False),
    ("ring", "from_chart", "ring.chart", False),
    ("fields", "apply_field", "fields.apply_field", False),
    ("fields", "bracket", "fields.bracket", True),
    ("fields", "potential_of", "fields.potential_of", True),
    ("fields", "lnd_check", "fields.lnd_check", True),
    ("automorphisms", "substitute", "automorphisms.substitute", False),
    ("automorphisms", "conjugate_field", "automorphisms.conjugate_field", True),
    ("automorphisms", "volume_factor", "automorphisms.volume_factor", True),
    ("membership", "solve_linear", "membership.solve_linear", True),
    ("membership", "verify_certificate", "membership.verify", True),
    ("membership", "evaluate", "membership.evaluate", True),
    ("membership", "decide", "membership.decide", True),
    ("membership", "certify_shears_only", "membership.certify", True),
    ("parsing", "parse_expression", "parsing.parse", True),
    ("parsing", "parse_unipoly", "parsing.parse", True),
    ("parsing", "parse_field", "parsing.parse", True),
    ("parsing", "parse_word", "parsing.parse", True),
    ("parsing", "certificate_file_obj", "parsing.cert_io", True),
    ("parsing", "load_certificate_file", "parsing.cert_io", True),
    ("parsing", "format_unipoly", "parsing.format", True),
    ("parsing", "format_surface_polynomial", "parsing.format", True),
    ("parsing", "format_field", "parsing.format", True),
    ("parsing", "format_word", "parsing.format", True),
    ("cli", "main", "cli.main", True),
)

# (module, class, method, span name, keep records)
METHODS = (
    ("ring", "UniPoly", "__mul__", "ring.unipoly_mul", False),
    ("ring", "UniPoly", "__pow__", "ring.unipoly_pow", False),
    ("ring", "SurfacePolynomial", "__mul__", "ring.surface_mul", False),
    ("fields", "AlgebraicVectorField", "__init__", "fields.field_init", False),
    ("automorphisms", "PolynomialAutomorphism", "__init__", "automorphisms.auto_init", True),
    ("membership", "_Certifier", "certify", "membership.search", True),
    ("membership", "SpanningFamily", "__init__", "membership.family", True),
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = "setup"
        self.stack: list = []  # frames: [name, child time, record id or None]
        self.records: list = []  # (id, name, start, end, parent id, op id)
        self.agg: dict = {}  # name -> [calls, total s, self s]
        self.counts: dict = {}  # extra counters, e.g. "ring.unipoly_mul.max_degree"
        self._next_id = 0

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, v: int):
        if v > self.counts.get(key, 0):
            self.counts[key] = v

    def wrap(self, name: str, fn, keep: bool, before=None, after=None):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack, records = self.stack, self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, stack, args, kwargs)
            parent = stack[-1] if stack else None
            rid = None
            if keep:
                rid = self._next_id
                self._next_id += 1
            frame = [name, 0.0, rid if keep else (parent[2] if parent else None)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                if parent is not None:
                    parent[1] += d
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[1]
                if keep:
                    records.append(
                        (rid, name, t0, t1, parent[2] if parent else None, self.op_id)
                    )
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped_by_bench__ = fn
        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op"],
                    "spans": self.records,
                    "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                                   for k, v in sorted(self.agg.items())},
                    "counts": self.counts,
                },
                fh,
            )


# -- counters computed at the boundaries ------------------------------------------


def _mul_degree(tr, stack, args, kwargs):
    a, b = args[0].c, args[1].c
    if a and b:
        tr.maximum("ring.unipoly_mul.max_degree", max(a) + max(b))


def _solve_cells(tr, stack, args, kwargs):
    columns, target = args[0], args[1]
    mod_const = args[2] if len(args) > 2 else kwargs.get("mod_const", False)
    exps = set(target.c)
    for c in columns:
        exps |= set(c.c)
    if mod_const:
        exps.discard(0)
    tr.count("membership.solve_linear.cells", len(exps) * (len(columns) + 1))


def _lnd_iteration(tr, stack, args, kwargs):
    if stack and stack[-1][0] == "fields.lnd_check":
        tr.count("fields.lnd_check.iterations")


def _family_entries(tr, args, result):
    tr.count("membership.family.entries", len(args[0].entries))


def _cert_nodes(tr, args, result):
    from danielewski.membership import expression_size

    tr.count("membership.cert_nodes", expression_size(result))


HOOKS = {
    "ring.unipoly_mul": (_mul_degree, None),
    "membership.solve_linear": (_solve_cells, None),
    "fields.apply_field": (_lnd_iteration, None),
    "membership.family": (None, _family_entries),
    "membership.certify": (None, _cert_nodes),
}


def install(tracer: Tracer) -> None:
    """Wrap every layer function; the library must already be imported."""
    import importlib

    mods = {m: importlib.import_module(f"danielewski.{m}") for m in
            ("ring", "fields", "automorphisms", "membership", "parsing", "cli")}
    namespaces = [m for k, m in sys.modules.items()
                  if k == "danielewski" or k.startswith("danielewski.")]
    for mod, attr, name, keep in FUNCTIONS:
        orig = getattr(mods[mod], attr)
        w = tracer.wrap(name, orig, keep, *HOOKS.get(name, (None, None)))
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, w)
    for mod, cls, meth, name, keep in METHODS:
        klass = getattr(mods[mod], cls)
        orig = klass.__dict__[meth]
        setattr(klass, meth, tracer.wrap(name, orig, keep, *HOOKS.get(name, (None, None))))


# -- per-layer metrics ----------------------------------------------------------------

CALLS = (
    "ring.unipoly_mul", "ring.unipoly_pow", "ring.poly_divrem", "ring.surface_mul",
    "fields.field_init", "fields.apply_field", "fields.bracket", "fields.potential_of",
    "automorphisms.auto_init", "automorphisms.substitute", "membership.solve_linear",
)
SELF = CALLS + (
    "ring.chart", "fields.lnd_check", "automorphisms.conjugate_field",
    "automorphisms.volume_factor", "membership.search", "membership.evaluate",
    "membership.decide", "parsing.parse", "parsing.cert_io", "parsing.format", "cli.main",
)
INCLUSIVE = {"membership.verify.s": "membership.verify",
             "membership.family.build_s": "membership.family"}
COUNTS = (
    "ring.unipoly_mul.max_degree", "fields.lnd_check.iterations",
    "membership.solve_linear.cells", "membership.family.entries", "membership.cert_nodes",
)


def layer_metrics(agg: dict, counts: dict) -> dict:
    """Per-layer metrics from merged aggregates: name -> (value, unit)."""
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (agg.get(name, [0, 0.0, 0.0])[0], "count")
    for name in SELF:
        out[f"{name}.self_s"] = (agg.get(name, [0, 0.0, 0.0])[2], "s")
    for metric, name in INCLUSIVE.items():
        out[metric] = (agg.get(name, [0, 0.0, 0.0])[1], "s")
    for key in COUNTS:
        out[key] = (counts.get(key, 0), "count")
    return out


def merge(into_agg: dict, into_counts: dict, agg: dict, counts: dict) -> None:
    for k, v in agg.items():
        a = into_agg.setdefault(k, [0, 0.0, 0.0])
        for i in range(3):
            a[i] += v[i]
    for k, v in counts.items():
        if k.endswith("max_degree"):
            into_counts[k] = max(into_counts.get(k, 0), v)
        else:
            into_counts[k] = into_counts.get(k, 0) + v
