"""Spans around superdiff's public functions, recorded from outside the package.

`Tracer.install` replaces each function named in LAYERS by a wrapper in
every `superdiff` module that binds it (a name imported with `from ...
import` is a separate binding in the importing module), and each method
on its class.  A wrapper records one span: name, start, end, parent span
and operation id.  Spans stay in memory until `write`.

The layer of a span is its name, such as `superfn.mul`.  For each layer:

* `calls`: spans with no enclosing span of the same layer;
* `busy_ms`: time inside those outermost spans;
* `self_ms`: busy time minus the time covered by spans of other layers
  nested inside it.

The counts below are read from the arguments and results at the layer
boundary.  Those of `superfn` read the nested Superfunction ->
Polynomial term dicts, so a change to that representation needs a new
`_terms` and `_mul_counts` first.  No metric measures waiting: one
thread runs everything, with no I/O and no queue between layers.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import defaultdict


def _terms(f) -> int:
    """Monomials of a Superfunction: its (th, t, exponents) triples."""
    return sum(len(poly.terms) for poly in f.terms.values())


def _mask(key) -> int:
    bits = 0
    for index in key:
        bits |= 1 << index
    return bits


def _mul_counts(args, result) -> dict:
    """Counts of one Superfunction product.

    key_pairs: pairs of term keys the product visits; coeff_pairs: pairs
    of coefficient monomials it multiplies, that is, over the key pairs
    whose th blocks and whose t blocks are disjoint.
    """
    a, b = args
    right = [(_mask(k), _mask(j), len(poly.terms)) for (k, j), poly in b.terms.items()]
    coeff_pairs = 0
    for (ka, ja), poly in a.terms.items():
        ma, mj, na = _mask(ka), _mask(ja), len(poly.terms)
        for mb, mjb, nb in right:
            if not (ma & mb or mj & mjb):
                coeff_pairs += na * nb
    return {
        "key_pairs": len(a.terms) * len(b.terms),
        "coeff_pairs": coeff_pairs,
        "terms_out": _terms(result),
    }


def _substitute_counts(args, result) -> dict:
    terms = _terms(result)
    return {"terms_out": terms, "peak_terms": terms}


PARSE = [
    "parse_any", "parse_morphism", "parse_factored", "parse_superfunction",
    "parse_derivation", "parse_grassmann", "parse_expression_text",
]
FORMAT = [
    "format_superfunction", "format_polynomial", "format_grassmann",
    "format_derivation", "format_underlying", "format_morphism",
    "format_grassmann_morphism", "format_factored",
]
SAMPLING = [
    "random_fraction", "random_exponents", "random_polynomial", "random_superfunction",
    "random_derivation", "random_invertible_matrix", "random_affine_body",
    "random_filtration_field", "random_body", "random_field_family", "random_point",
    "random_grassmann", "random_grassmann_morphism", "random_morphism",
]

# (layer, module, attributes, counts from (args, result), class the second
# argument must have for the call to be recorded).  Counts named peak_*
# are maxima; the others are summed over the outermost spans.
LAYERS = [
    ("superfn.substitute", "superfn", ["substitute_generators"], _substitute_counts, None),
    ("superfn.mul", "superfn", ["Superfunction.__mul__"], _mul_counts, "Superfunction"),
    ("superfn.add", "superfn", ["Superfunction.__add__"], None, None),
    ("superfn.map_external", "superfn", ["map_external"], None, None),
    ("grassmann.mul", "grassmann", ["GrassmannElement.__mul__"], None, "GrassmannElement"),
    ("grassmann.morphism_apply", "grassmann", ["GrassmannMorphism.apply"], None, None),
    ("substitution.apply", "substitution", ["UnderlyingMorphism.apply"], None, None),
    ("substitution.compose", "substitution", ["UnderlyingMorphism.compose"], None, None),
    ("substitution.with_inverse", "substitution", ["UnderlyingMorphism.with_inverse"], None, None),
    ("substitution.affine_part", "substitution", ["UnderlyingMorphism.affine_part"], None, None),
    ("derivation.apply", "derivation", ["SuperDerivation.apply"], None, None),
    ("derivation.symmetrize_apply", "derivation", ["symmetrize_apply"],
     lambda a, r: {"orders": math.factorial(len(a[0]))}, None),
    ("derivation.bracket", "derivation", ["SuperDerivation.bracket"], None, None),
    ("derivation.pushforward", "derivation", ["pushforward"], None, None),
    ("derivation.exp_nilpotent", "derivation", ["exp_nilpotent"], None, None),
    ("derivation.log_unipotent", "derivation", ["log_unipotent"], None, None),
    ("morphism.compose", "morphism", ["SuperMorphism.compose"], None, None),
    ("morphism.factorize", "morphism", ["factorize"], None, None),
    ("morphism.expand_factored", "morphism", ["expand_factored"], None, None),
    ("morphism.certify_inverse", "morphism", ["certify_inverse"],
     lambda a, r: {"certified": r is not None}, None),
    ("morphism.gr_push", "morphism", ["gr_push"], None, None),
    ("sdiff.compose", "sdiff", ["compose"], None, None),
    ("sdiff.invert", "sdiff", ["invert"], None, None),
    ("sdiff.compose_factored", "sdiff", ["compose_factored"], None, None),
    ("sdiff.functor_map", "sdiff", ["functor_map"], None, None),
    ("sections.section_basis", "sections", ["section_basis"],
     lambda a, r: {"basis_size": len(r)}, None),
    ("parser.parse", "parser", PARSE, lambda a, r: {"bytes_in": len(a[0].encode())}, None),
    ("parser.format", "parser", FORMAT, lambda a, r: {"bytes_out": len(r.encode())}, None),
    ("cli.main", "cli", ["main"], lambda a, r: {"nonzero_exits": r != 0}, None),
    ("sampling", "sampling", SAMPLING, None, None),
]

# The series operator whose calls are one exp or log series term each.
SERIES_STEP = {
    "derivation.exp_nilpotent": "derivation.apply",
    "derivation.log_unipotent": "substitution.apply",
}

# Per-layer metrics this benchmark reports, with their units.
METRICS = {}
for _layer, _names in [
    ("superfn.substitute", ["calls", "busy_ms", "self_ms", "terms_out", "peak_terms"]),
    ("superfn.mul", ["calls", "self_ms", "key_pairs", "coeff_pairs", "terms_out"]),
    ("superfn.add", ["calls", "self_ms"]),
    ("superfn.map_external", ["calls", "busy_ms"]),
    ("grassmann.mul", ["calls", "self_ms"]),
    ("grassmann.morphism_apply", ["calls", "busy_ms"]),
    ("substitution.apply", ["calls", "busy_ms"]),
    ("substitution.compose", ["calls", "busy_ms"]),
    ("substitution.with_inverse", ["calls", "busy_ms"]),
    ("substitution.affine_part", ["calls", "busy_ms"]),
    ("derivation.apply", ["calls", "busy_ms", "self_ms"]),
    ("derivation.symmetrize_apply", ["calls", "busy_ms", "orders"]),
    ("derivation.bracket", ["calls", "busy_ms"]),
    ("derivation.pushforward", ["calls", "busy_ms"]),
    ("derivation.exp_nilpotent", ["calls", "busy_ms", "series_terms"]),
    ("derivation.log_unipotent", ["calls", "busy_ms", "series_terms"]),
    ("morphism.compose", ["calls", "busy_ms", "self_ms"]),
    ("morphism.factorize", ["calls", "busy_ms", "self_ms"]),
    ("morphism.expand_factored", ["calls", "busy_ms"]),
    ("morphism.certify_inverse", ["calls", "busy_ms", "certified_ratio"]),
    ("morphism.gr_push", ["calls", "busy_ms"]),
    ("sdiff.compose", ["calls", "busy_ms", "self_ms"]),
    ("sdiff.invert", ["calls", "busy_ms", "self_ms"]),
    ("sdiff.compose_factored", ["calls", "busy_ms", "self_ms"]),
    ("sdiff.functor_map", ["calls", "busy_ms", "self_ms"]),
    ("sections.section_basis", ["calls", "busy_ms", "basis_size"]),
    ("parser.parse", ["calls", "busy_ms", "self_ms", "bytes_in"]),
    ("parser.format", ["calls", "busy_ms", "bytes_out"]),
    ("cli.main", ["calls", "busy_ms", "self_ms", "nonzero_exits"]),
    ("sampling", ["busy_ms"]),
]:
    for _name in _names:
        METRICS[f"{_layer}.{_name}"] = {
            "busy_ms": "ms", "self_ms": "ms", "bytes_in": "B", "bytes_out": "B",
            "certified_ratio": "1",
        }.get(_name, "count")
OVERHEAD = "trace.overhead_ratio"
METRICS[OVERHEAD] = "1"


class Tracer:
    """Wraps the LAYERS functions and keeps one span per wrapped call."""

    def __init__(self):
        # each span: [layer, start, end, parent index, op id, outermost, extra]
        self.spans: list[list] = []
        self.op = -1  # -1 during set-up
        self._stack = [-1]
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, layer, fn, extra, accept):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if accept is not None and not accept(args):
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1], tracer.op, active[layer] == 0, None]
            stack.append(len(spans))
            spans.append(span)
            active[layer] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[layer] -= 1
                stack.pop()
            if extra is not None:
                span[6] = extra(args, result)
            return result

        return wrapper

    def _plan(self) -> None:
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "superdiff" or name.startswith("superdiff.")
        ]
        for layer, module, attrs, extra, operand in LAYERS:
            home = sys.modules[f"superdiff.{module}"]
            accept = None
            if operand is not None:
                cls = getattr(home, operand)
                accept = lambda args, cls=cls: isinstance(args[1], cls)
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[meth]
                    wrapper = self._wrap(layer, original, extra, accept)
                    self._patches.append((owner, meth, original, wrapper))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(layer, original, extra, accept)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patches.append((mod, attr, original, wrapper))

    def install(self) -> None:
        if not self._patches:
            self._plan()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric in METRICS except the overhead ratio."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        values: dict[str, float] = defaultdict(int)
        for i, (layer, start, end, parent, _op, outermost, counts) in enumerate(spans):
            values[f"{layer}.self_ms"] += (end - start - covered[i]) * 1000
            if parent >= 0 and SERIES_STEP.get(spans[parent][0]) == layer:
                values[f"{spans[parent][0]}.series_terms"] += 1
            if not outermost:
                continue
            values[f"{layer}.calls"] += 1
            values[f"{layer}.busy_ms"] += (end - start) * 1000
            for stat, value in (counts or {}).items():
                key = f"{layer}.{stat}"
                if stat.startswith("peak_"):
                    values[key] = max(values[key], value)
                else:
                    values[key] += value
        certify = "morphism.certify_inverse"
        if values[f"{certify}.calls"]:
            values[f"{certify}.certified_ratio"] = (
                values[f"{certify}.certified"] / values[f"{certify}.calls"]
            )
        return {metric: values[metric] for metric in METRICS if metric != OVERHEAD}

    def write(self, path) -> None:
        """All spans as JSON lines: layer, start, end, parent, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for layer, start, end, parent, op, _outermost, _extra in self.spans:
                handle.write(json.dumps([layer, start, end, parent, op]) + "\n")
