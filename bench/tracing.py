"""Spans around the calls the CLI makes into each bettibounds module.

The tracer replaces module attributes with wrappers at run time; nothing
inside ``src/`` changes.  ``cli`` binds some names at import (``decompose``,
``pure_diagram`` ...), so those are patched on the ``cli`` module; calls that
go through a module attribute (``tablefile.load``, ``bounds.*``,
``estimation.*``) are patched on their own module, which also catches
``bounds._guarded_binomial`` calling ``ensure_binomial_budget``.

A span is (name, start, end, parent, query, error, info).  Spans stay in
memory; :func:`layer_metrics` turns them into per-query self times and
counts after the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_EXACT = ("pure_bounds", "algebraic_bounds", "veronese_bounds", "variety_bounds")


def _length(args, kwargs, result):
    return len(result)


def _precision_at(position):
    def info(args, kwargs, result):
        return kwargs.get("prec", args[position] if len(args) > position else 40)
    return info


def targets(modules: dict):
    """(module, attribute, span name, info) for every traced boundary."""
    cli, bounds, estimation = modules["cli"], modules["bounds"], modules["estimation"]
    return [
        (modules["tablefile"], "load", "tablefile.load", None),
        (cli, "pure_diagram", "diagrams.pure_diagram", _length),
        (cli, "format_diagram", "diagrams.format_diagram", None),
        (cli, "decompose", "decompose.decompose", _length),
        (cli, "verify_decomposition", "decompose.verify", None),
        *[(bounds, name, "bounds.exact", None) for name in _EXACT],
        (bounds, "ensure_binomial_budget", "bounds.budget_check", None),
        (estimation, "veronese_digit_bracket", "estimation.bracket", _precision_at(3)),
        (estimation, "variety_digit_bracket", "estimation.bracket", _precision_at(4)),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._query = -1
        self._saved = []

    def _wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            error, result = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                detail = info(args, kwargs, result) if info and error is None else None
                self.spans[index] = (name, start, end, parent, self._query, error, detail)
        return wrapper

    def install(self, modules: dict) -> None:
        for module, attribute, name, info in targets(modules):
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original, info))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    @contextmanager
    def query(self, query_id: int):
        """Root span ``cli`` around one ``cli.main`` call."""
        self._query = query_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("cli", start, end, -1, query_id, None, None)


def _bucket(precision: int) -> str:
    return "prec40" if precision <= 40 else "prec400" if precision <= 400 else "prec1000"


def layer_metrics(spans, scales, output_bytes: int) -> dict:
    """Per-query self times (ms, each multiplied by its query's ``scale``)
    and counts from a run's spans."""
    queries = len(scales)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ms, count = {}, {}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    exact_queries, too_large_queries = set(), set()
    for k, (name, start, end, parent, query, error, detail) in enumerate(spans):
        self_ms = (end - start - child_time[k]) * 1e3 * scales[query]
        if name == "estimation.bracket":
            add(ms, "estimation.bracket_ms." + _bucket(detail or 40), self_ms)
            add(count, "estimation.brackets", 1)
            continue
        add(ms, name + "_ms", self_ms)
        if name == "tablefile.load":
            add(count, "tablefile.load_calls", 1)
        elif name == "diagrams.pure_diagram" and detail is not None:
            add(count, "diagrams.entries_built", detail)
        elif name == "decompose.decompose" and detail is not None:
            add(count, "decompose.terms", detail)
        if name.startswith("decompose.") and error is not None:
            add(count, "decompose.not_in_cone", 1)
        if name.startswith("bounds."):
            exact_queries.add(query)
            if error == "TooLarge":
                too_large_queries.add(query)
                if parent >= 0 and spans[parent][0] == "cli":  # top-level bounds call: its time is lost
                    add(ms, "bounds.wasted_ms", (end - start) * 1e3 * scales[query])
    metrics = {
        "cli.self_ms": ms.get("cli_ms", 0.0) / queries,
        "cli.output_bytes": output_bytes / queries,
        "tablefile.load_ms": ms.get("tablefile.load_ms", 0.0) / queries,
        "tablefile.load_calls": count.get("tablefile.load_calls", 0) / queries,
        "diagrams.pure_diagram_ms": ms.get("diagrams.pure_diagram_ms", 0.0) / queries,
        "diagrams.format_diagram_ms": ms.get("diagrams.format_diagram_ms", 0.0) / queries,
        "diagrams.entries_built": count.get("diagrams.entries_built", 0) / queries,
        "decompose.decompose_ms": ms.get("decompose.decompose_ms", 0.0) / queries,
        "decompose.verify_ms": ms.get("decompose.verify_ms", 0.0) / queries,
        "decompose.terms": count.get("decompose.terms", 0) / queries,
        "decompose.not_in_cone": count.get("decompose.not_in_cone", 0) / queries,
        "bounds.exact_ms": ms.get("bounds.exact_ms", 0.0) / queries,
        "bounds.budget_check_ms": ms.get("bounds.budget_check_ms", 0.0) / queries,
        "bounds.too_large": len(too_large_queries) / queries,
        "bounds.fallback_ratio": len(too_large_queries) / max(1, len(exact_queries)),
        "bounds.wasted_ms": ms.get("bounds.wasted_ms", 0.0) / queries,
        "estimation.brackets": count.get("estimation.brackets", 0) / queries,
    }
    for bucket in ("prec40", "prec400", "prec1000"):
        key = "estimation.bracket_ms." + bucket
        metrics[key] = ms.get(key, 0.0) / queries
    return metrics
