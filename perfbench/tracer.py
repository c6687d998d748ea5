"""Spans around the library's public callables, installed from outside.

`install` replaces each callable in `TARGETS` with a wrapper: module
functions wherever a `cliffideals` module binds them (so a caller that
imported the name sees the wrapper too), methods on their class.  A
wrapper records a span (name, start, end, parent) per call while an
operation is open and passes calls straight through otherwise, so the
output checks between operations are not counted.

Spans are kept in memory.  Repeated calls of one callable under the same
parent span are folded into one record holding the call count, the first
start, the last end and the summed duration: a single closure makes
millions of kernel calls, which could not be held one by one.  A span's
self time is its summed duration minus the summed durations of its child
spans.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter

# metric prefix -> (module, attribute path); the prefix names the layer.
TARGETS = {
    "blades.blade_mul": ("blades", "blade_mul"),
    "blades.check_blade": ("blades", "Signature.check_blade"),
    "multivector.mul": ("multivector", "Multivector.__mul__"),
    "multivector.nilpotency_index": ("multivector", "Multivector.nilpotency_index"),
    "multivector.unipotent_inverse": ("multivector", "Multivector.unipotent_inverse"),
    "linalg.add": ("linalg", "Echelon.add"),
    "linalg.add_unit": ("linalg", "Echelon.add_unit"),
    "linalg.contains": ("linalg", "Echelon.contains"),
    "linalg.reduce": ("linalg", "Echelon.reduce"),
    "linalg.intersect_spans": ("linalg", "intersect_spans"),
    "ideals.ideal_closure": ("ideals", "ideal_closure"),
    "ideals.ideal_classify": ("ideals", "ideal_classify"),
    "ideals.nil_radical": ("ideals", "nil_radical"),
    "ideals.ideal_from_null_set": ("ideals", "ideal_from_null_set"),
    "ideals.ideal_intersect": ("ideals", "ideal_intersect"),
    "ideals.ideal_product": ("ideals", "ideal_product"),
    "ideals.ideal_sum": ("ideals", "ideal_sum"),
    "ideals.Ideal.contains": ("ideals", "Ideal.contains"),
    "ideals.component_ideal": ("ideals", "component_ideal"),
    "ideals.prime_ideals": ("ideals", "prime_ideals"),
    "ideals.ideal_nilpotency_index": ("ideals", "ideal_nilpotency_index"),
    "ideals.null_support_of_ideal": ("ideals", "null_support_of_ideal"),
    "ideals.ascending_chain": ("ideals", "ascending_chain"),
    "ideals.descending_chain": ("ideals", "descending_chain"),
    "structure.central_idempotents": ("structure", "central_idempotents"),
    "structure.classify_pq": ("structure", "classify_pq"),
    "structure.split_decompose": ("structure", "split_decompose"),
    "parsing.parse_expression": ("parsing", "parse_expression"),
    "parsing.parse_signature": ("parsing", "parse_signature"),
    "cli.run": ("cli", "run"),
    # cli.output is not here: every request uses --json, so the reports
    # are rendered by json.dumps, which install() wraps on its own.
}

# The per-layer metrics a traced run reports, with their units.
METRICS = {
    "blades.blade_mul.calls": "count",
    "blades.blade_mul.self_s": "s",
    "blades.check_blade.calls": "count",
    "multivector.mul.calls": "count",
    "multivector.mul.term_pairs": "count",
    "multivector.mul.self_s": "s",
    "linalg.add.calls": "count",
    "linalg.add.grew": "count",
    "linalg.add.useful_ratio": "ratio",
    "linalg.add.self_s": "s",
    "linalg.add_unit.calls": "count",
    "linalg.add_unit.useful_ratio": "ratio",
    "linalg.contains.calls": "count",
    "linalg.contains.self_s": "s",
    "linalg.reduce.self_s": "s",
    "linalg.intersect_spans.self_s": "s",
    "ideals.ideal_closure.calls": "count",
    "ideals.ideal_closure.self_s": "s",
    "ideals.ideal_classify.self_s": "s",
    "ideals.nil_radical.calls": "count",
    "ideals.nil_radical.self_s": "s",
    "ideals.ideal_intersect.self_s": "s",
    "ideals.ideal_product.calls": "count",
    "ideals.ideal_product.self_s": "s",
    "ideals.Ideal.contains.calls": "count",
    "structure.central_idempotents.calls": "count",
    "structure.central_idempotents.self_s": "s",
    "parsing.parse_expression.calls": "count",
    "parsing.parse_expression.self_s": "s",
    "cli.run.self_s": "s",
    "cli.output.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

NAME, PARENT, START, END, CALLS, TOTAL, CHILD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._index: dict = {}
        self._stack = [-1]

    def begin(self, label: str) -> None:
        """Open the root span of one operation."""
        self._stack.append(len(self.spans))
        self.spans.append([f"op:{label}", -1, time.perf_counter(), 0.0, 1, 0.0, 0.0])

    def end(self) -> None:
        span = self.spans[self._stack.pop()]
        span[END] = time.perf_counter()
        span[TOTAL] = span[END] - span[START]

    def wrap(self, name: str, fn, on_result=None):
        spans, index, stack, clock = self.spans, self._index, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent < 0:
                return fn(*args, **kwargs)
            key = (parent, name)
            i = index.get(key)
            if i is None:
                i = index[key] = len(spans)
                spans.append([name, parent, None, 0.0, 0, 0.0, 0.0])
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = spans[i]
                if span[START] is None:
                    span[START] = t0
                span[END] = t1
                span[CALLS] += 1
                span[TOTAL] += t1 - t0
                spans[parent][CHILD] += t1 - t0
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- counts beyond calls ------------------------------------------

    def _count_term_pairs(self, args, result):
        a, b = args[0], args[1]
        if hasattr(b, "terms"):
            self.counts["multivector.mul.term_pairs"] += len(a.terms) * len(b.terms)

    def _count_grew(self, args, result):
        if result:
            self.counts["linalg.add.grew"] += 1

    def _count_add_unit_useful(self, args, result):
        if result:
            self.counts["linalg.add_unit.grew"] += 1

    def install(self, cf) -> None:
        """Wrap every callable in TARGETS inside the imported package."""
        hooks = {
            "multivector.mul": self._count_term_pairs,
            "linalg.add": self._count_grew,
            "linalg.add_unit": self._count_add_unit_useful,
        }
        modules = [m for k, m in sys.modules.items()
                   if k == cf.__name__ or k.startswith(cf.__name__ + ".")]
        for name, (module, path) in TARGETS.items():
            owner = getattr(cf, module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            if classes:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
        # The CLI renders --json reports with json.dumps; give the cli
        # module its own json namespace whose dumps is traced as output.
        proxy = types.SimpleNamespace(**vars(cf.cli.json))
        proxy.dumps = self.wrap("cli.output", cf.cli.json.dumps)
        cf.cli.json = proxy

    # -- results --------------------------------------------------------

    def totals(self) -> dict:
        """name -> (calls, self seconds) over all recorded spans."""
        out: dict = {}
        for span in self.spans:
            calls, self_s = out.get(span[NAME], (0, 0.0))
            out[span[NAME]] = (calls + span[CALLS], self_s + span[TOTAL] - span[CHILD])
        return out

    def metrics(self, overhead_ratio: float, scale: float = 1.0) -> dict:
        """The METRICS values; self times are multiplied by `scale`."""
        totals = self.totals()
        values = {}
        for metric in METRICS:
            prefix, _, kind = metric.rpartition(".")
            calls, self_s = totals.get(prefix, (0, 0.0))
            if kind == "calls":
                values[metric] = calls
            elif kind == "self_s":
                values[metric] = self_s * scale
            elif kind == "useful_ratio":
                grew = self.counts[prefix + ".grew"]
                values[metric] = grew / calls if calls else 0.0
            elif metric == "trace.overhead_ratio":
                values[metric] = overhead_ratio
            else:
                values[metric] = self.counts[metric]
        return values

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start": s[START] - origin, "end": s[END] - origin,
                    "calls": s[CALLS], "total_s": s[TOTAL],
                    "self_s": s[TOTAL] - s[CHILD],
                }) + "\n")
