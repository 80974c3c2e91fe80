"""Spans recorded from the benchmark's side around calls into ``ordist``.

``Tracer`` replaces each traced public function at every module attribute
of the ``ordist`` package that holds it, so the calls the program makes
internally (``order_distance_eq1`` -> ``midpath_split_system`` ->
``DistanceMatrix.comparison_rows``) are timed and nested without any change
to the program.  Spans stay in memory: name, start, end, parent index,
bundle id and whether the call raised.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

# span name -> (module, attribute path)
TRACED = {
    "cli.run": ("ordist.cli", "run"),
    "formats.parse_distance_matrix": ("ordist.formats", "parse_distance_matrix"),
    "formats.format_distance_matrix": ("ordist.formats", "format_distance_matrix"),
    "formats.parse_split_system": ("ordist.formats", "parse_split_system"),
    "core.comparison_rows": ("ordist.core", "DistanceMatrix.comparison_rows"),
    "core.generate_distance": ("ordist.core", "generate_distance"),
    "order.midpath_split_system": ("ordist.order", "midpath_split_system"),
    "order.order_distance_eq1": ("ordist.order", "order_distance_eq1"),
    "order.order_distance_kendall": ("ordist.order", "order_distance_kendall"),
    "circular.order_distance_circular": ("ordist.circular", "order_distance_circular"),
    "circular.recover_circular_ordering": ("ordist.circular", "recover_circular_ordering"),
    "circular.is_circular_split_system": ("ordist.circular", "is_circular_split_system"),
    "compat.is_compatible": ("ordist.compat", "is_compatible"),
    "flatlab.orderly_test": ("ordist.flatlab", "orderly_test"),
    "flatlab.is_linearly_independent": ("ordist.flatlab", "is_linearly_independent"),
    "flatlab.is_maximum_flat": ("ordist.flatlab", "is_maximum_flat"),
    "flatlab.express_in_basis": ("ordist.flatlab", "express_in_basis"),
}

# Spans whose results feed the exact counts.
_KEEP_RESULTS = {"order.midpath_split_system", "core.comparison_rows"}

NAME, START, END, PARENT, BUNDLE, ERROR = range(6)


class Tracer:
    """Records spans while installed; ``install`` and ``remove`` swap the
    wrappers in and out so untraced bundles run the original code."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: list[tuple[int, object, object]] = []  # (span, first arg, result)
        self.bundle = -1
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ordist" or name.startswith("ordist.")]
        for span_name, (module_name, path) in TRACED.items():
            owner_name, _, attr = path.rpartition(".")
            owner = import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            owners = [owner] if owner_name else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            self._sites += [(o, attr, original, wrapper) for o in owners]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _open(self, name: str) -> tuple[int, list]:
        stack = self._stack
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.bundle, False]
        stack.append(index)
        self.spans.append(span)
        span[START] = perf_counter()
        return index, span

    def _wrap(self, name: str, fn):
        keep = name in _KEEP_RESULTS

        def traced(*args, **kwargs):
            index, span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if keep:
                self.kept.append((index, args[0] if args else None, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (e.g. around a replay)."""
        _, span = self._open(name)
        try:
            yield
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def as_records(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "bundle": s[BUNDLE], "error": s[ERROR]}
            for s in self.spans
        ]


# Per-layer metrics reported for every span in TRACED except the set-up-only
# kendall engine, plus the derived rows; ``.errors`` only where a call raises.
BUNDLE_SPANS = [name for name in TRACED if name != "order.order_distance_kendall"]
DERIVED = ["order.eq1_accumulate", "circular.arcs_table", "flatlab.per_probe"]
ERROR_SPANS = [
    "formats.parse_distance_matrix", "formats.parse_split_system",
    "circular.order_distance_circular", "flatlab.orderly_test",
    "flatlab.express_in_basis",
]
SETUP_SPANS = ["order.order_distance_kendall", "order.order_distance_eq1"]
COUNTS = {
    "order.midpath.x_splits": "count",
    "order.midpath.e_splits": "count",
    "order.midpath.fill": "ratio",
    "core.cmp_scale_bits": "bits",
    "flatlab.orderly.probes": "count",
}


def per_bundle(tracer: Tracer, spans: range) -> dict[str, float]:
    """Self times (ms), inclusive times, calls, errors, derived rows and
    exact counts of one bundle, from the spans whose indices are in ``spans``.

    Derived rows: ``order.eq1_accumulate`` is eq1 minus its midpath child;
    ``circular.arcs_table`` is the circular engine minus its recovery and
    comparison-rows children; ``flatlab.per_probe`` is orderly_test minus the
    replayed is_linearly_independent (its solver set-up), per probe.
    """
    all_spans = tracer.spans
    child_ms: dict[int, dict[str, float]] = {}
    root: dict[int, int] = {}
    for i in spans:
        parent = all_spans[i][PARENT]
        root[i] = root[parent] if parent >= 0 else i
        if parent >= 0:
            by_name = child_ms.setdefault(parent, {})
            name = all_spans[i][NAME]
            by_name[name] = by_name.get(name, 0.0) + (all_spans[i][END] - all_spans[i][START]) * 1e3
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    probes = 0
    for i in spans:
        name, start, end, parent = all_spans[i][:4]
        total = (end - start) * 1e3
        children = child_ms.get(i, {})
        self_ms = total - sum(children.values())
        add(f"{name}.self_ms", self_ms)
        add(f"{name}.incl_ms", total)
        add(f"{name}.calls", 1)
        add(f"{name}.errors", int(all_spans[i][ERROR]))
        root_name = all_spans[root[i]][NAME]
        add(f"{root_name}.tree_self_ms", self_ms)
        parent_name = all_spans[parent][NAME] if parent >= 0 else ""
        if name == "order.order_distance_eq1":
            add("order.eq1_accumulate.self_ms",
                total - children.get("order.midpath_split_system", 0.0))
            add("order.eq1_accumulate.calls", 1)
        elif name == "circular.order_distance_circular":
            add("circular.arcs_table.self_ms",
                total - children.get("circular.recover_circular_ordering", 0.0)
                - children.get("core.comparison_rows", 0.0))
            add("circular.arcs_table.calls", 1)
        elif name == "core.generate_distance" and parent_name == "flatlab.orderly_test":
            probes += 1
        elif name == "flatlab.is_linearly_independent" and parent_name.startswith("replay."):
            add("flatlab.solver_setup_ms", total)
    if probes:
        probe_ms = out["flatlab.orderly_test.incl_ms"] - out.get("flatlab.solver_setup_ms", 0.0)
        out["flatlab.per_probe.self_ms"] = probe_ms / probes
        out["flatlab.per_probe.calls"] = probes
        out["flatlab.orderly.probes"] = probes
    out.update(_counts(tracer, spans))
    return out


def _counts(tracer: Tracer, spans: range) -> dict[str, float]:
    x_splits = e_splits = pairs = scale_bits = 0
    seen_rows: set[int] = set()
    for index, first_arg, result in tracer.kept:
        if index not in spans:
            continue
        if tracer.spans[index][NAME] == "order.midpath_split_system":
            x_splits += len(result.x_splits)
            e_splits += len(result.e_splits)
            pairs += first_arg.n * (first_arg.n - 1)
        elif id(result) not in seen_rows:
            seen_rows.add(id(result))
            scale_bits = max(scale_bits, max(abs(v).bit_length() for row in result for v in row))
    return {
        "order.midpath.x_splits": x_splits,
        "order.midpath.e_splits": e_splits,
        "order.midpath.fill": x_splits / pairs if pairs else 0.0,
        "core.cmp_scale_bits": scale_bits,
    }


def per_layer_metrics(
    bundles: list[dict[str, float]], setup: dict[str, float],
    traced_ms: list[float], untraced_ms: list[float],
) -> dict[str, tuple[float, str]]:
    """Medians over traced bundles of every per-layer metric, by name."""

    def median(key: str) -> float:
        return statistics.median(b.get(key, 0.0) for b in bundles)

    metrics: dict[str, tuple[float, str]] = {}
    for name in BUNDLE_SPANS + DERIVED:
        metrics[f"{name}.self_ms"] = (median(f"{name}.self_ms"), "ms")
        metrics[f"{name}.calls"] = (median(f"{name}.calls"), "count")
    for name in ERROR_SPANS:
        metrics[f"{name}.errors"] = (median(f"{name}.errors"), "count")
    for name in SETUP_SPANS:
        metrics[f"setup.{name}.self_ms"] = (setup.get(f"{name}.self_ms", 0.0), "ms")
        metrics[f"setup.{name}.calls"] = (setup.get(f"{name}.calls", 0.0), "count")
    for name, unit in COUNTS.items():
        metrics[name] = (median(name), unit)
    traced, untraced = statistics.median(traced_ms), statistics.median(untraced_ms)
    metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")
    metrics["trace.bundles"] = (len(bundles), "count")
    return metrics
