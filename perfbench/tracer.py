"""Spans around the package's public functions, recorded from outside.

`Tracer.install` wraps every public function of the eight layer modules and
replaces each reference to it in the package's namespaces, which is where
callers look the names up (`arrangement.solve_lp`, `critical.interior_point`,
`cli.chromatic_polynomial`, ...).  A span is `[name, start, end, parent,
info]`: `parent` is the index of the enclosing span, -1 at the top, and
`info` is a work count read off the return value for a few functions.  Spans
stay in memory until the pass ends.  No file of the package changes.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "graphs", "orientations", "arrangement", "lp", "critical", "moduli", "digraph_poly")

# Work counts read off return values.
INFO = {
    "arrangement.bounded_chambers_lp": len,
    "critical.solve_chamber": lambda report: report.iterations,
    "moduli.omega_with_stats": lambda result: result[1]["terms_peak"],
    "moduli.expand_psi_decorations": lambda expr: expr.term_count,
}

PER_LAYER = {
    # name: unit
    "cli.verify_self_s": "s",
    "graphs.chromatic_s": "s",
    "orientations.stanley_s": "s",
    "arrangement.bijective_s": "s",
    "arrangement.lp_search_s": "s",
    "arrangement.chambers": "count",
    "arrangement.lp_yield": "ratio",
    "lp.solve_calls": "count",
    "lp.solve_s": "s",
    "critical.solve_s": "s",
    "critical.interior_point_s": "s",
    "critical.newton_iterations": "count",
    "moduli.omega_calls": "count",
    "moduli.omega_s": "s",
    "moduli.expand_psi_s": "s",
    "moduli.pullback_s": "s",
    "moduli.fold_steps": "count",
    "moduli.terms_peak": "count",
    "moduli.terms_total": "count",
    "digraph_poly.report_s": "s",
    "digraph_poly.interp_s": "s",
    "digraph_poly.engine_calls": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        """Start a span by hand (the benchmark's own per-case spans)."""
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(len(self.spans) - 1)

    def close(self, info=None):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        span[4] = info

    def wrap(self, name, fn):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if info is not None:
                try:
                    spans[index][4] = info(result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed return shape loses the count, not the case
            return result

        return traced

    def install(self, package="chromoduli"):
        """Wrap the layers' public functions wherever the package refers to them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname == package or modname.startswith(package + "."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, name, wrappers[obj])
        return self


def _children(spans):
    kids = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(index)
    return kids


def _has_ancestor(spans, index, names):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def _outermost(spans, names):
    """Spans named in `names` with no enclosing span also named in `names`."""
    return [i for i, s in enumerate(spans) if s[0] in names and not _has_ancestor(spans, i, names)]


def _inclusive(spans, names):
    return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, names))


def _self(spans, kids, indices):
    """Duration of each span minus the part its child spans cover, summed."""
    total = 0.0
    for i in indices:
        span = spans[i]
        total += (span[2] - span[1]) - sum(spans[k][2] - spans[k][1] for k in kids[i])
    return total


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (`trace.overhead_s` is added by the caller)."""
    kids = _children(spans)
    index_of = {}
    for i, span in enumerate(spans):
        index_of.setdefault(span[0], []).append(i)

    def named(name):
        return index_of.get(name, [])

    def inside(name, ancestor):
        return [i for i in named(name) if _has_ancestor(spans, i, {ancestor})]

    def counts(indices):
        return [spans[i][4] for i in indices if spans[i][4] is not None]

    lp_search_solves = len(inside("lp.solve_lp", "arrangement.bounded_chambers_lp"))
    chambers = sum(counts(named("arrangement.bounded_chambers_lp")))
    omega_names = {"moduli.omega", "moduli.omega_with_stats"}
    folds = inside("moduli.expand_psi_decorations", "moduli.omega_with_stats")
    cli_spans = [i for i, s in enumerate(spans) if s[0].startswith("cli.")]
    return {
        "cli.verify_self_s": _self(spans, kids, cli_spans),
        "graphs.chromatic_s": _inclusive(spans, {"graphs.chromatic_polynomial"}),
        "orientations.stanley_s": _inclusive(spans, {"orientations.stanley_pair_count"}),
        "arrangement.bijective_s": _inclusive(spans, {"arrangement.bounded_chambers_bijective"}),
        "arrangement.lp_search_s": _inclusive(spans, {"arrangement.bounded_chambers_lp"}),
        "arrangement.chambers": chambers,
        "arrangement.lp_yield": chambers / lp_search_solves if lp_search_solves else 0.0,
        "lp.solve_calls": len(named("lp.solve_lp")),
        "lp.solve_s": _inclusive(spans, {"lp.solve_lp"}),
        "critical.solve_s": _inclusive(spans, {s[0] for s in spans if s[0].startswith("critical.")}),
        "critical.interior_point_s": _inclusive(spans, {"arrangement.interior_point"}),
        "critical.newton_iterations": sum(counts(named("critical.solve_chamber"))),
        "moduli.omega_calls": len(_outermost(spans, omega_names)),
        "moduli.omega_s": _inclusive(spans, omega_names),
        "moduli.expand_psi_s": _inclusive(spans, {"moduli.expand_psi_decorations"}),
        "moduli.pullback_s": _inclusive(
            spans, {"moduli.pullback_psi", "moduli.point_class_pullback", "moduli.pullback_divisor"}
        ),
        "moduli.fold_steps": len(folds),
        "moduli.terms_peak": max(counts(named("moduli.omega_with_stats")), default=0),
        "moduli.terms_total": sum(counts(folds)),
        "digraph_poly.report_s": _inclusive(spans, {"digraph_poly.digraph_polynomial_report"}),
        "digraph_poly.interp_s": _self(spans, kids, named("digraph_poly.chi_interpolated")),
        "digraph_poly.engine_calls": len(
            [i for i in _outermost(spans, omega_names) if _has_ancestor(spans, i, {"digraph_poly.digraph_polynomial_report"})]
        ),
        "trace.spans": len(spans),
    }
