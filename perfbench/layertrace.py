"""Outside-in tracing of knotsig: wrap module attributes, keep spans in memory.

`install()` replaces the public functions and methods listed in TARGETS with
wrappers, in every loaded ``knotsig`` module that holds them (so aliases
made by ``from .x import f`` are covered too).  Nothing under ``src/``
changes.  A span is ``(name, start, end, parent)``; ``parent`` is the index
of the enclosing span in the same phase, or -1.  Hot methods are counted
without a span, so their time stays in the caller's self time.

A phase is one stretch of traced work (the set-up, or one pass).
`phase_metrics` turns a phase into the per-layer metrics of BENCHMARK.json:
inclusive times of named calls, self times per layer (span duration minus
its direct children) and counts.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, attribute or Class.method, layer, kind); kind is "span" or "count".
TARGETS = (
    ("expressions", "resolve", "expressions", "span"),
    ("braids", "seifert_from_braid", "braids", "span"),
    ("seifert", "SeifertMatrix.__init__", "seifert", "span"),
    ("seifert", "alexander_polynomial", "seifert", "span"),
    ("factor", "factor_int_poly", "factor", "span"),
    ("signature", "breakpoint_candidates", "signature", "span"),
    ("signature", "step_function", "signature", "span"),
    ("sturm", "isolate_real_roots", "sturm", "span"),
    ("sturm", "RealRoot.refine", "sturm", "count"),
    ("hermitian", "signature_at_sample", "hermitian", "span"),
    ("hermitian", "signature_at_root", "hermitian", "span"),
    ("hermitian", "ScaledOrder.__init__", "hermitian", "count"),
    ("hermitian", "ScaledOrder.real_inverse", "hermitian", "span"),
    ("hermitian", "ScaledOrder.real_sign", "hermitian", "count"),
    ("bounds", "bound_report", "bounds", "span"),
    ("bounds", "report_for_matrix", "bounds", "span"),
    ("bounds", "report_to_dict", "certify", "span"),
    ("certify", "decimal_of_t", "certify", "span"),
    ("certify", "decimal_of_root", "certify", "span"),
    ("knotio", "read_seifert_file", "knotio", "span"),
    ("knotio", "render_report_json", "knotio", "span"),
    ("plot", "svg_step_plot", "plot", "span"),
    ("oracle", "exhaustive_check", "oracle", "span"),
    ("cli", "main", "cli", "span"),
)

LAYERS = ("expressions", "braids", "seifert", "factor", "signature", "sturm",
          "hermitian", "bounds", "certify", "knotio", "plot", "oracle", "cli")

# metric name -> span names whose outermost calls are summed (inclusive time)
INCLUSIVE = {
    "expressions.resolve_s": ("expressions.resolve",),
    "seifert.validate_s": ("seifert.SeifertMatrix.__init__",),
    "seifert.alexander_s": ("seifert.alexander_polynomial",),
    "factor.factor_s": ("factor.factor_int_poly",),
    "sturm.isolate_s": ("sturm.isolate_real_roots",),
    "hermitian.sample_s": ("hermitian.signature_at_sample",),
    "hermitian.root_s": ("hermitian.signature_at_root",),
    "hermitian.real_inverse_s": ("hermitian.ScaledOrder.real_inverse",),
    "certify.render_s": ("bounds.report_to_dict", "certify.decimal_of_t",
                         "certify.decimal_of_root"),
    "knotio.table_load_s": ("knotio.read_seifert_file",),
    "knotio.json_s": ("knotio.render_report_json",),
    "plot.svg_s": ("plot.svg_step_plot",),
    "oracle.check_s": ("oracle.exhaustive_check",),
    "cli.main_s": ("cli.main",),
}

# metric name -> span names whose self times are summed
SELF = {
    "signature.candidates_self_s": ("signature.breakpoint_candidates",),
    "signature.step_self_s": ("signature.step_function",),
    "bounds.report_self_s": ("bounds.bound_report", "bounds.report_for_matrix"),
}

# metric name -> span or count names whose calls are counted
CALLS = {
    "expressions.resolve_calls": "expressions.resolve",
    "seifert.validate_calls": "seifert.SeifertMatrix.__init__",
    "seifert.alexander_calls": "seifert.alexander_polynomial",
    "factor.calls": "factor.factor_int_poly",
    "sturm.refine_calls": "sturm.RealRoot.refine",
    "hermitian.sample_calls": "hermitian.signature_at_sample",
    "hermitian.root_calls": "hermitian.signature_at_root",
    "hermitian.real_inverse_calls": "hermitian.ScaledOrder.real_inverse",
    "hermitian.real_sign_calls": "hermitian.ScaledOrder.real_sign",
}

# counts recorded by hooks at the call boundary
HOOKED = ("factor.max_degree", "sturm.roots", "hermitian.orders", "oracle.states")

SPAN_LAYER = {f"{mod}.{attr}": layer for mod, attr, layer, kind in TARGETS if kind == "span"}


class Tracer:
    """Spans and counts of the current phase; off until a phase starts."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list[int] = []
        self._names: list[str] = []
        self._t0 = 0.0

    def start_phase(self) -> None:
        self.spans, self.counts, self.maxima = [], Counter(), {}
        self._stack, self._names = [], []
        self._t0 = time.perf_counter()
        self.enabled = True

    def end_phase(self) -> dict:
        """Stop recording and hand back the phase: wall time, spans, counts."""
        wall = time.perf_counter() - self._t0
        self.enabled = False
        counts = dict(self.counts)
        counts.update(self.maxima)
        return {"wall_s": wall, "spans": self.spans, "counts": counts}

    def parent_name(self) -> str | None:
        return self._names[-1] if self._names else None

    def span(self, name: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            self._names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._names.pop()
                self.spans[sid] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def count(self, name: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
                if hook is not None:
                    hook(self, args, None)
            return fn(*args, **kwargs)
        return wrapper


def _factor_degree(tr: Tracer, args, _result) -> None:
    f = list(args[0])
    while f and not f[-1]:
        f.pop()
    tr.maxima["factor.max_degree"] = max(tr.maxima.get("factor.max_degree", 0), len(f) - 1)


def _roots_found(tr: Tracer, _args, result) -> None:
    tr.counts["sturm.roots"] += len(result)


def _order_made(tr: Tracer, _args, _result) -> None:
    # orders of the number-field path only; samples use degree-1 orders
    if tr.parent_name() == "hermitian.signature_at_root":
        tr.counts["hermitian.orders"] += 1


def _states_checked(tr: Tracer, _args, result) -> None:
    tr.counts["oracle.states"] += result.states_checked


HOOKS = {
    "factor.factor_int_poly": _factor_degree,
    "sturm.isolate_real_roots": _roots_found,
    "hermitian.ScaledOrder.__init__": _order_made,
    "oracle.exhaustive_check": _states_checked,
}


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded knotsig module."""
    for mod_name in {t[0] for t in TARGETS}:
        importlib.import_module(f"knotsig.{mod_name}")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "knotsig" or n.startswith("knotsig."))]
    for mod_name, attr, _layer, kind in TARGETS:
        name = f"{mod_name}.{attr}"
        make = tracer.span if kind == "span" else tracer.count
        owner = sys.modules[f"knotsig.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(name, cls.__dict__[meth], HOOKS.get(name)))
            continue
        original = getattr(owner, attr)
        wrapped = make(name, original, HOOKS.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def phase_metrics(phase: dict) -> dict:
    """Per-layer metrics of one phase (see the module docstring)."""
    spans = phase["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys([*INCLUSIVE, *SELF, *(f"{layer}.self_s" for layer in LAYERS)], 0.0)
    calls = Counter()
    inclusive_of = {n: m for m, names in INCLUSIVE.items() for n in names}
    self_of = {n: m for m, names in SELF.items() for n in names}
    for sid, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        own = dur - child_time[sid]
        calls[name] += 1
        out[f"{SPAN_LAYER[name]}.self_s"] += own
        metric = inclusive_of.get(name)
        if metric is not None and not _has_ancestor(spans, parent, INCLUSIVE[metric]):
            out[metric] += dur
        if name in self_of:
            out[self_of[name]] += own
    counts = phase["counts"]
    for metric, name in CALLS.items():
        out[metric] = calls[name] + counts.get(name, 0)
    for metric in HOOKED:
        out[metric] = counts.get(metric, 0)
    return out


def _has_ancestor(spans, parent: int, names) -> bool:
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def add_metrics(a: dict, b: dict) -> dict:
    """Sum two metric dicts; maxima stay maxima."""
    out = dict(a)
    for key, value in b.items():
        if key == "factor.max_degree":
            out[key] = max(out.get(key, 0), value)
        else:
            out[key] = out.get(key, 0) + value
    return out
