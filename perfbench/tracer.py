"""Tracing from outside the program: wrappers around loccap's layer entry
points, installed for one traced pass and removed afterwards.

Layer functions (channel_model, classify, capacity_engine, cli) get span
wrappers that record [name, tag, start, end, parent] in memory.  The GF
kernels and subspace helpers run millions of times per pass, so they get
count-only wrappers; their time comes from the untraced microbenchmarks
in kernels.py instead.

A function bound by ``from .gf_core import mat_mul`` lives under its own
name in every importing module, so each wrapper replaces every global of
every loaded loccap module that is bound to the original function.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, TAG, START, END, PARENT = range(5)

# (module, attribute, span name) of the span wrappers.
SPANNED = [
    ("cli", "main", "cli.main"),
    ("cli", "cmd_report", "cli.cmd_report"),
    ("channel_model", "load_channel", "channel_model.load_channel"),
    ("channel_model", "transition_core", "channel_model.transition_core"),
    ("channel_model", "generate", "channel_model.generate"),
    ("channel_model", "save_channel", "channel_model.save_channel"),
    ("classify", "classify", "classify.classify"),
    ("classify", "is_uniform_given_rank", "classify.uniform_given_rank"),
    ("classify", "is_rank_symmetric", "classify.rank_symmetric"),
    ("classify", "is_degraded", "classify.degraded"),
    ("classify", "has_unique_subspace_degradation",
     "classify.unique_subspace_degradation"),
    ("classify", "is_row_space_symmetric", "classify.row_space_symmetric"),
    ("capacity_engine", "capacity_report", "capacity_engine.capacity_report"),
    ("capacity_engine", "shannon_capacity",
     "capacity_engine.shannon_capacity"),
    ("capacity_engine", "css_unique", "capacity_engine.css"),
    ("capacity_engine", "css_bruteforce", "capacity_engine.css"),
    ("capacity_engine", "bounds_row_space", "capacity_engine.bounds_markov"),
    ("capacity_engine", "markov_check", "capacity_engine.bounds_markov"),
    ("capacity_engine", "_ba", "capacity_engine.ba"),
]

# (module, attribute, counter name) of the count-only wrappers.
COUNTED = [
    ("gf_core", "mat_mul", "gf_core.mat_mul.calls"),
    ("gf_core", "rref", "gf_core.rref.calls"),
    ("gf_core", "solve_factor", "gf_core.solve_factor.calls"),
    ("subspace_enum", "span_rows", "subspace_enum.span_rows.calls"),
    ("subspace_enum", "span_columns", "subspace_enum.span_columns.calls"),
]

PREDICATES = ("classify.uniform_given_rank", "classify.rank_symmetric",
              "classify.degraded", "classify.unique_subspace_degradation",
              "classify.row_space_symmetric")


def loccap_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "loccap" or name.startswith("loccap.")]


def rebind(original, replacement):
    """Bind ``replacement`` wherever a loaded loccap module binds
    ``original``; returns the [(module, attribute, original)] to restore."""
    patches = []
    for module in loccap_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                patches.append((module, key, original))
    return patches


def restore(patches):
    for target, key, original in reversed(patches):
        setattr(target, key, original)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []   # (namespace, attribute, original), in order

    def _on_result(self, rec, result):
        name, counts = rec[NAME], self.counts
        if name == "channel_model.transition_core":
            counts["channel_model.table_entries"] += sum(
                len(t) for t in result.tables.values())
        elif name == "capacity_engine.css":
            rec[TAG] = result.mode
            counts["capacity_engine.css.assignments_tried"] += \
                result.assignments_tried
        elif name == "capacity_engine.ba":
            counts["capacity_engine.ba.iterations"] += result[3]
        elif name in PREDICATES:
            # is_rank_symmetric returns (PredicateResult, mu).
            pred = result[0] if isinstance(result, tuple) else result
            counts["classify.predicates_run"] += 1
            counts["classify.predicates_failed"] += not pred.holds

    def _span_wrapper(self, name, fn):
        spans, stack, on_result = self.spans, self._stack, self._on_result

        def traced(*args, **kwargs):
            rec = [name, None, perf_counter(), None,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            on_result(rec, result)
            return result
        return traced

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _yield_counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return counted

    def install(self):
        by_name = {m.__name__.rpartition(".")[2]: m
                   for m in loccap_modules()}
        for mod, attr, name in SPANNED:
            orig = getattr(by_name[mod], attr)
            self._patches += rebind(orig, self._span_wrapper(name, orig))
        for mod, attr, key in COUNTED:
            orig = getattr(by_name[mod], attr)
            self._patches += rebind(orig, self._count_wrapper(key, orig))
        orig = by_name["subspace_enum"].matrices_with_column_space
        self._patches += rebind(orig, self._yield_counter(
            "subspace_enum.inputs_enumerated", orig))
        matrix_cls = by_name["gf_core"].MatrixGF
        orig = matrix_cls.__post_init__
        matrix_cls.__post_init__ = self._count_wrapper(
            "gf_core.matrix_constructions", orig)
        self._patches.append((matrix_cls, "__post_init__", orig))

    def remove(self):
        restore(self._patches)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()


def span_seconds(spans):
    """{name: inclusive seconds}, {(name, tag): inclusive seconds} and
    {name: self seconds} over a list of spans.

    Self time is a span's duration minus that of its direct children; the
    run is single-threaded, so children never overlap.
    """
    by_name, by_tag, child = defaultdict(float), defaultdict(float), \
        defaultdict(float)
    for rec in spans:
        dur = rec[END] - rec[START]
        by_name[rec[NAME]] += dur
        by_tag[(rec[NAME], rec[TAG])] += dur
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += dur
    self_s = defaultdict(float)
    for i, rec in enumerate(spans):
        self_s[rec[NAME]] += rec[END] - rec[START] - child[i]
    return by_name, by_tag, self_s


def calls(spans, name) -> int:
    return sum(1 for rec in spans if rec[NAME] == name)


# The per-channel columns of the ROADMAP baseline table.
PHASES = [("core", "channel_model.transition_core"),
          ("C", "capacity_engine.shannon_capacity"),
          ("RSS", "classify.row_space_symmetric"),
          ("USD scan", "classify.unique_subspace_degradation"),
          ("degraded scan", "classify.degraded"),
          ("BA", "capacity_engine.ba")]


def phase_row(spans) -> dict:
    """Seconds per baseline phase over the spans of one report call."""
    by_name, _, _ = span_seconds(spans)
    return {col: by_name.get(name, 0.0) for col, name in PHASES}
