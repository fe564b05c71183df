"""Spans around calls into normgrowth's public functions, recorded from outside.

The tracer replaces each traced function with a wrapper at every place the
package binds it: the defining module, every module that imported the name,
and module-level lists of tuples such as ``acceptance.CRITERIA``.  Methods are
wrapped on their class.  Spans (name, start, end, parent) are kept in memory
and written out when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# span name -> (module, attribute) of every function recorded under that name
TRACED = {
    "context.get_context": [("normgrowth.context", "get_context")],
    "psl.build": [("normgrowth.psl", "build_psl2"), ("normgrowth.psl", "build_psl3")],
    "permgroup.closure": [("normgrowth.permgroup", "closure")],
    "permgroup.classes": [("normgrowth.permgroup", "compute_classes")],
    "permgroup.index_of": [("normgrowth.permgroup", "FiniteGroup.index_of")],
    "permgroup.division_table": [("normgrowth.permgroup", "FiniteGroup.division_table")],
    "permgroup.word_image": [("normgrowth.permgroup", "word_image")],
    "chartable.tensor": [("normgrowth.chartable", "class_mult_tensor")],
    "chartable.recover": [("normgrowth.chartable", "burnside_dixon_numeric")],
    "chartable.io": [("normgrowth.chartable", "save_table"), ("normgrowth.chartable", "load_table")],
    "subsets.build": [
        ("normgrowth.subsets", "enumerate_normal_subsets"),
        ("normgrowth.subsets", "random_normal_subset"),
        ("normgrowth.subsets", "random_subset"),
        ("normgrowth.subsets", "parse_subset_expr"),
    ],
    "spectral.walk_matrix": [("normgrowth.spectral", "walk_matrix")],
    "spectral.lambda_direct": [("normgrowth.spectral", "lambda_direct")],
    "spectral.arc_count": [("normgrowth.spectral", "arc_count")],
    "growth.product_set": [("normgrowth.growth", "product_set")],
    "growth.pair_count": [("normgrowth.growth", "pair_count")],
    "distributions.convolve": [("normgrowth.distributions", "convolve")],
    "distributions.weighted_lambda": [("normgrowth.distributions", "weighted_cayley_lambda")],
    "reports.serialize": [("normgrowth.reports", "write_report")],
    "cli.main": [("normgrowth.cli", "main")],
}
TRACED.update(
    {
        f"acceptance.criterion_{k:02d}": [("normgrowth.acceptance", f"criterion_{k}")]
        for k in range(1, 15)
    }
)

# per-layer metric -> (unit, better, how it is derived from the span sums)
#   ("self", span)       summed self time: duration minus time in child spans
#   ("incl", span)       summed inclusive duration
#   ("calls", span)      number of spans
#   ("counter", key)     a counter kept by the wrappers
#   ("ratio", key, span)  a counter per call of a span
#   ("quotient", a, b)   one counter divided by another
PER_LAYER = {
    "context.get_context_s": ("s", "lower", ("incl", "context.get_context")),
    "psl.build_s": ("s", "lower", ("self", "psl.build")),
    "permgroup.closure_s": ("s", "lower", ("self", "permgroup.closure")),
    "permgroup.classes_s": ("s", "lower", ("self", "permgroup.classes")),
    "permgroup.index_of_s": ("s", "lower", ("self", "permgroup.index_of")),
    "permgroup.index_of_calls": ("count", "lower", ("calls", "permgroup.index_of")),
    "permgroup.index_of_rows": ("rows", "lower", ("counter", "index_of_rows")),
    "permgroup.index_of_rows_per_call": ("rows/call", "higher", ("ratio", "index_of_rows", "permgroup.index_of")),
    "permgroup.division_table_s": ("s", "lower", ("self", "permgroup.division_table")),
    "permgroup.word_image_s": ("s", "lower", ("self", "permgroup.word_image")),
    "chartable.tensor_s": ("s", "lower", ("self", "chartable.tensor")),
    "chartable.recover_s": ("s", "lower", ("self", "chartable.recover")),
    "chartable.io_s": ("s", "lower", ("self", "chartable.io")),
    "subsets.build_s": ("s", "lower", ("self", "subsets.build")),
    "spectral.walk_matrix_s": ("s", "lower", ("self", "spectral.walk_matrix")),
    "spectral.walk_matrix_calls": ("count", "lower", ("calls", "spectral.walk_matrix")),
    "spectral.lambda_direct_self_s": ("s", "lower", ("self", "spectral.lambda_direct")),
    "spectral.lambda_direct_calls": ("count", "lower", ("calls", "spectral.lambda_direct")),
    "spectral.arc_count_s": ("s", "lower", ("self", "spectral.arc_count")),
    "growth.product_set_s": ("s", "lower", ("self", "growth.product_set")),
    "growth.product_set_calls": ("count", "lower", ("calls", "growth.product_set")),
    "growth.product_rows_ratio": ("ratio", "lower", ("quotient", "product_rows", "product_pairs")),
    "growth.pair_count_s": ("s", "lower", ("self", "growth.pair_count")),
    "growth.pair_count_calls": ("count", "lower", ("calls", "growth.pair_count")),
    "distributions.convolve_s": ("s", "lower", ("self", "distributions.convolve")),
    "distributions.convolve_calls": ("count", "lower", ("calls", "distributions.convolve")),
    "distributions.weighted_lambda_s": ("s", "lower", ("self", "distributions.weighted_lambda")),
    "reports.serialize_s": ("s", "lower", ("self", "reports.serialize")),
    "reports.bytes_written": ("bytes", "lower", ("counter", "report_bytes")),
    "reports.records": ("records", "higher", ("counter", "report_records")),
    "cli.main_self_s": ("s", "lower", ("self", "cli.main")),
}
PER_LAYER.update(
    {
        f"acceptance.criterion_{k:02d}_s": ("s", "lower", ("incl", f"acceptance.criterion_{k:02d}"))
        for k in range(1, 15)
    }
)
# trace bookkeeping, filled in by the runner
TRACE_METRICS = {
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_est_s": ("s", "lower"),
}


def _rows_of(args) -> int:
    rows = np.asarray(args[1])
    return 1 if rows.ndim == 1 else int(rows.shape[0])


class Tracer:
    """Records spans and counters; install() binds, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters = {
            "index_of_rows": 0,
            "product_rows": 0,
            "product_pairs": 0,
            "report_bytes": 0,
            "report_records": 0,
        }
        self._stack = [-1]
        self._undo: list = []

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        before = after = None
        if name == "permgroup.index_of":

            def before(args, parent):
                rows = _rows_of(args)
                counters["index_of_rows"] += rows
                if parent >= 0 and spans[parent][0] == "growth.product_set":
                    counters["product_rows"] += rows

        elif name == "growth.product_set":
            from normgrowth.subsets import subset_mask

            def before(args, parent):
                a, b = args[1], args[2]
                counters["product_pairs"] += int(subset_mask(a).sum()) * int(
                    subset_mask(b).sum()
                )

        elif name == "reports.serialize":

            def after(args):
                doc, path = args[0], args[1]
                counters["report_records"] += len(doc.results)
                counters["report_bytes"] += os.path.getsize(path)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            if before is not None:
                before(args, parent)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args)
            return result

        return wrapper

    # -- binding ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every site that binds it."""
        modules = [
            m for k, m in list(sys.modules.items()) if k == "normgrowth" or k.startswith("normgrowth.")
        ]
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, targets in TRACED.items():
            for modname, attr in targets:
                owner = sys.modules[modname]
                if "." in attr:  # a method: wrap it once, on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._set(cls, meth, self.wrap(name, vars(cls)[meth]))
                else:
                    fn = getattr(owner, attr)
                    wrappers[id(fn)] = (fn, self.wrap(name, fn))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if swap(value) is not None:
                    self._set(mod, key, swap(value))
                elif isinstance(value, list):  # e.g. acceptance.CRITERIA
                    for i, item in enumerate(value):
                        if isinstance(item, tuple) and any(swap(x) is not None for x in item):
                            self._undo.append((value.__setitem__, i, item))
                            value[i] = tuple(swap(x) or x for x in item)
        leftover = [
            f"{mod.__name__}.{key}"
            for mod in modules
            for key, value in vars(mod).items()
            if swap(value) is not None
        ]
        if leftover:
            raise RuntimeError(f"tracer left unwrapped bindings: {leftover}")

    def _set(self, owner, key, value) -> None:
        self._undo.append((functools.partial(setattr, owner), key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)

    # -- aggregation -----------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """A point in the trace: span count and counter values so far."""
        return len(self.spans), dict(self.counters)

    def _self_times(self, lo: int, hi: int | None) -> list[float]:
        """Self seconds of spans[lo:hi]: duration minus time in child spans."""
        spans = self.spans[lo:hi]
        own = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= lo:
                own[parent - lo] -= end - start
        return own

    def sums(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name: (calls, inclusive s, self s) over spans[lo:hi]."""
        out: dict = {}
        for (name, start, end, _), own in zip(self.spans[lo:hi], self._self_times(lo, hi)):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start, self_s + own)
        return out

    def self_by_root(self, hi: int) -> list[dict]:
        """For each top-level span before hi, self seconds per span name under it."""
        out: list[dict] = []
        root_of: list[int] = []
        for (name, _, _, parent), own in zip(self.spans[:hi], self._self_times(0, hi)):
            if parent < 0:
                root_of.append(len(out))
                out.append({})
            else:
                root_of.append(root_of[parent])
            per = out[root_of[-1]]
            per[name] = per.get(name, 0.0) + own
        return out

    def per_layer(self, setup_end: tuple[int, dict], passes: int) -> dict:
        """Per-layer metrics: the traced setup plus the mean timed pass.

        `setup_end` is the mark taken between setup and the timed passes.
        """
        cut, at_cut = setup_end
        setup, timed = self.sums(0, cut), self.sums(cut)
        counters = {
            k: at_cut[k] + (v - at_cut[k]) / passes for k, v in self.counters.items()
        }

        def get(name, field):
            empty = (0, 0.0, 0.0)
            return setup.get(name, empty)[field] + timed.get(name, empty)[field] / passes

        field_of = {"calls": 0, "incl": 1, "self": 2}
        out = {}
        for metric, (_, _, rule) in PER_LAYER.items():
            kind = rule[0]
            if kind in field_of:
                value = get(rule[1], field_of[kind])
            elif kind == "counter":
                value = counters[rule[1]]
            elif kind == "ratio":  # counter per call of a span
                calls = get(rule[2], 0)
                value = counters[rule[1]] / calls if calls else 0.0
            else:  # quotient of two counters
                den = counters[rule[2]]
                value = counters[rule[1]] / den if den else 0.0
            out[metric] = value
        return out

    def dump(self, path: str) -> None:
        """Write every span as CSV: index,name,start,end,parent (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, measured on a no-op."""

    def noop(*args):
        return None

    wrapped = Tracer().wrap("probe", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop(None, None)
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped(None, None)
    return max(0.0, (clock() - t0 - bare) / calls)
