"""Span recording around braidcalc's public functions, from outside.

Each wrapped function becomes a span (name, start, end, parent, op id)
kept in memory.  Wrappers are installed by rebinding the name in every
loaded ``braidcalc`` module that holds the original object, so calls
between modules (``links`` calling ``burau_matrix``, ``certify`` calling
``classify_closure``) go through the wrapper too.  ``restore`` puts every
original back.  Nothing under ``src/`` is edited.

Counters are derived from the wrapped calls' arguments and results only:
letters pushed through Burau, Bareiss steps implied by the matrix size,
Alexander degree spans, and oracle outcome classes.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, function, span name); the span name is the metric prefix
BOUNDARIES = (
    ("words", "parse_word", "words.parse_word"),
    ("words", "format_word", "words.format_word"),
    ("burau", "burau_matrix", "burau.burau_matrix"),
    ("burau", "determinant", "burau.determinant"),
    ("links", "components", "links.components"),
    ("links", "linking_matrix", "links.linking_matrix"),
    ("links", "alexander_polynomial", "links.alexander_polynomial"),
    ("b3", "normal_form", "b3.normal_form"),
    ("b3", "classify_closure", "b3.classify_closure"),
    ("b3", "brute_force_conjugacy_oracle", "b3.oracle"),
    ("templates", "instantiate", "templates.instantiate"),
    ("templates", "per_component_beta_delta", "templates.per_component_beta_delta"),
    ("certify", "certify", "certify.certify"),
    ("certify", "report_to_json", "certify.report_to_json"),
    ("moves", "tower_from_json", "moves.tower_from_json"),
    ("moves", "validate_tower", "moves.validate_tower"),
    ("cli", "main", "cli.main"),
)

OP_SPAN = "op"
CACHES = (("b3.ball_cache", "_conjugation_ball"), ("b3.battery_cache", "_battery_key"))


def bareiss_steps(size: int) -> int:
    """Entry updates of a fraction-free elimination on a size x size matrix."""
    return sum((size - 1 - k) ** 2 for k in range(size - 1))


def _count(counters: dict, span: str, args: tuple, result) -> None:
    if span == "burau.burau_matrix":
        counters["burau.letters_pushed"] += len(args[0].letters)
    elif span == "burau.determinant":
        counters["burau.bareiss_steps"] += bareiss_steps(len(args[0]))
    elif span == "links.alexander_polynomial":
        if not result.is_zero():
            counters["links.alexander_degree_total"] += result.max_degree() - result.min_degree()
    elif span == "words.parse_word":
        counters["words.letters"] += len(result.letters)
    elif span == "words.format_word":
        counters["words.letters"] += len(args[0].letters)
    elif span == "b3.oracle":
        counters["b3.oracle." + type(result).__name__] += 1


class Tracer:
    """In-memory span store with an explicit stack; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counters = Counter()
        self._stack: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, span: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.counters[span + ".calls"] += 1
            _count(self.counters, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def adopt(self, spans: list, op) -> None:
        """Append spans recorded by another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end, parent if p is None else base + p, op])


def braidcalc_modules() -> dict:
    """The package's submodules by short name, from sys.modules.

    ``from braidcalc import certify`` would give the re-exported
    function, which shadows the submodule of the same name.
    """
    names = {module for module, _, _ in BOUNDARIES}
    return {name: importlib.import_module("braidcalc." + name) for name in names}


def install(tracer: Tracer) -> list:
    """Rebind every boundary function to a traced wrapper; return the undo list."""
    modules = braidcalc_modules()
    loaded = [m for name, m in sys.modules.items() if name == "braidcalc" or name.startswith("braidcalc.")]
    undo = []
    for module, func, span in BOUNDARIES:
        original = getattr(modules[module], func)
        wrapper = tracer.wrap(span, original)
        for holder in loaded:
            if holder.__dict__.get(func) is original:
                setattr(holder, func, wrapper)
                undo.append((holder, func, original))
    return undo


def restore(undo: list) -> None:
    for holder, func, original in reversed(undo):
        setattr(holder, func, original)


def cache_snapshot() -> dict:
    b3 = importlib.import_module("braidcalc.b3")
    out = {}
    for name, attr in CACHES:
        info = getattr(b3, attr).cache_info()
        out[name + ".hits"] = info.hits
        out[name + ".misses"] = info.misses
    return out


def cache_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


def self_times(spans: list) -> dict:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans are properly nested within one thread, so children
    never overlap.
    """
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_total[parent] += end - start
    totals: dict = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_total[index]
    return totals
