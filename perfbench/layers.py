"""Traced mode: wrap the public functions of each layer, attribute time.

The wrappers live here, not in the program: each replaces a function where
the program looks it up (a module global or a class attribute) and, while
the measured phase runs, records a span per call under the id of the current
operation.  A span's self time is its duration minus the time of the spans
it encloses.  Spans are kept in memory and folded into per-layer metrics at
the end.  Tracing slows the run; the end-to-end metrics always come from an
untraced run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import defaultdict

clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.kinds: list[str] = []
        self.spans: list[tuple[int, str, int, int]] = []  # (op, layer, inclusive ns, self ns)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []  # child time of each open span
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: tuple[dict, dict, int] = ({}, {}, 0)
        self._gc_started = 0
        self.gc_ns = 0
        self.replans = 0

    # -- spans ------------------------------------------------------------ #

    def begin(self, kind: str) -> None:
        self.op = len(self.kinds)
        self.kinds.append(kind)
        self._saved = (dict(self.calls), dict(self.counts), len(self.spans))

    def end(self, abandoned: bool) -> None:
        """Close the current operation.

        The work an abandoned read did before the alarm depends on timing,
        so its spans and counts are dropped: per-layer figures cover the
        operations that completed, and their counts repeat exactly.
        """
        # The alarm may land between a wrapper's bookkeeping steps; nothing
        # carries over to the next operation.
        self._stack.clear()
        self._depth.clear()
        if abandoned:
            calls, counts, spans = self._saved
            self.calls.clear()
            self.calls.update(calls)
            self.counts.clear()
            self.counts.update(counts)
            del self.spans[spans:]
            self.kinds[self.op] = "abandoned"

    def _timed(self, owner: object, attr: str, layer: str, on_result=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack, depth = tracer._stack, tracer._depth
            stack.append(0)
            depth[layer] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                depth[layer] -= 1
                tracer.calls[layer] += 1
                # A layer re-entered from inside itself counts once, from
                # its outermost span.
                outer = duration if depth[layer] == 0 else 0
                tracer.spans.append((tracer.op, layer, outer, duration - children))
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def _counted_items(self, module: object, attr: str, counter: str) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for item in original(*args, **kwargs):
                if tracer.active:
                    tracer.counts[counter] += 1
                yield item

        setattr(module, attr, wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_started = clock()
        elif self._gc_started:
            self.gc_ns += clock() - self._gc_started
            self._gc_started = 0

    # -- installation ----------------------------------------------------- #

    def install(self) -> None:
        """Wrap every layer; call before any database or service exists."""
        # By module path: package __init__ files re-export functions under
        # their modules' names.
        (
            bounded_output, element_queries, equivalence, vbrp, vbrp_plus, optimizer,
            backends, cache, maintenance, planners, service,
            histograms, indexes, instance, snapshots,
        ) = (
            importlib.import_module("repro." + name)
            for name in (
                "core.bounded_output", "core.element_queries", "core.equivalence",
                "core.vbrp", "core.vbrp_plus", "engine.optimizer",
                "engine.service.backends", "engine.service.cache",
                "engine.service.maintenance", "engine.service.planners",
                "engine.service.service", "storage.histograms", "storage.indexes",
                "storage.instance", "storage.snapshots",
            )
        )

        count = self.counts

        def hits(entry) -> None:
            count["cache_hits" if entry is not None else "cache_misses"] += 1

        def evictions(evicted: int) -> None:
            count["evictions"] += evicted

        def delta_rows(deltas) -> None:
            count["view_delta_rows"] += sum(len(d.added) + len(d.removed) for d in deltas)

        self._timed(service, "parse_query", "parse")
        self._timed(service, "canonical_query_key", "key")
        self._timed(cache.LRUPlanCache, "get", "cache_get", hits)
        self._timed(cache.LRUPlanCache, "invalidate", "cache_invalidate", evictions)
        self._timed(service.QueryService, "query", "service")
        self._timed(service.PreparedQuery, "execute", "service")
        wrapped: set[type] = set()
        for name in planners.available_planners():
            planner_type = type(planners.resolve_planners([name])[0])
            if planner_type not in wrapped:
                wrapped.add(planner_type)
                self._timed(planner_type, "plan", "plan")
        self._timed(bounded_output, "cq_bounded_output", "bop")
        for module in (bounded_output, equivalence, element_queries):
            self._counted_items(module, "iter_element_queries", "element_queries")
        for module in (optimizer, service, vbrp, vbrp_plus):
            self._timed(module, "conforms_to", "conformance")
        self._timed(backends.InMemoryBackend, "execute_baseline", "baseline")
        self._timed(service, "codegen_eligibility", "verify")
        self._timed(service, "compile_plan_closure", "compile")
        self._timed(backends.InMemoryBackend, "execute_compiled", "kernel")
        self._timed(backends.InMemoryBackend, "execute_plan", "kernel")
        # Pinning a snapshot for a read: the staleness check every read makes,
        # taking the current version, and binding it to the read's meter.
        self._timed(snapshots.SnapshotManager, "stale", "snapshot_pin")
        self._timed(snapshots.SnapshotManager, "reader", "snapshot_pin")
        self._timed(snapshots.DatabaseSnapshot, "bound_to", "snapshot_pin")
        self._timed(snapshots.SnapshotManager, "advance", "snapshot_advance")
        self._timed(instance.Database, "apply", "apply")
        self._timed(indexes.IndexSet, "admissible", "admissible")
        self._timed(indexes.AccessIndex, "on_insert", "index_observer")
        self._timed(indexes.AccessIndex, "on_delete", "index_observer")
        self._timed(histograms.ColumnStatistics, "on_insert", "histogram")
        self._timed(histograms.ColumnStatistics, "on_delete", "histogram")
        self._timed(maintenance.ViewMaintainer, "apply_stream", "maintenance", delta_rows)
        gc.callbacks.append(self._on_gc)

    def stop(self, service) -> None:
        self.active = False
        # Over the service's lifetime, warm-up included: re-plans happen
        # while the working set warms up.
        self.replans = service.stats.snapshot().replans

    # -- metrics ---------------------------------------------------------- #

    def metrics(self, workload, rounds: int, first: list) -> dict[str, tuple[float, str]]:
        """The per-layer metrics; ``first`` is the first round's outcomes."""
        inclusive: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for _, layer, outer, own in self.spans:
            inclusive[layer] += outer
            self_ns[layer] += own
        reads = sum(1 for kind in self.kinds if kind in ("text", "prepared"))
        batches = sum(1 for kind in self.kinds if kind == "apply")
        updates = rounds * sum(len(op.batch) for op in workload.round if op.kind == "apply")
        summaries = [o[1] for o in first if o is not None and len(o) == 2]
        fetched = rounds * sum(s[1] for s in summaries)
        view_rows = sum(s[3] for s in summaries)
        plans = self.calls["plan"]
        compiles = self.calls["compile"]
        lookups = self.counts["cache_hits"] + self.counts["cache_misses"]

        def per(value: float, base: int) -> float:
            return value / base if base else 0.0

        return {
            "algebra.parse_us_per_read": (per(inclusive["parse"] / 1e3, reads), "us"),
            "service.cache.key_us_per_read": (per(inclusive["key"] / 1e3, reads), "us"),
            "service.cache.hit_ratio": (per(self.counts["cache_hits"], lookups), "ratio"),
            "service.cache.evictions_per_batch": (per(self.counts["evictions"], batches), "count"),
            "service.self_us_per_read": (per(self_ns["service"] / 1e3, reads), "us"),
            "service.planners.plans": (per(plans, rounds), "count/round"),
            "service.planners.plan_ms_per_plan": (per(inclusive["plan"] / 1e6, plans), "ms"),
            "core.bop_calls_per_plan": (per(self.calls["bop"], plans), "count"),
            "core.element_queries_per_plan": (per(self.counts["element_queries"], plans), "count"),
            "core.conformance_ms_per_plan": (per(inclusive["conformance"] / 1e6, plans), "ms"),
            "engine.baseline_ms_per_fallback": (per(inclusive["baseline"] / 1e6, self.calls["baseline"]), "ms"),
            "analysis.verify_ms_per_compile": (per(inclusive["verify"] / 1e6, self.calls["verify"]), "ms"),
            "exec.compiles": (per(compiles, rounds), "count/round"),
            "exec.compile_ms_per_compile": (per(inclusive["compile"] / 1e6, compiles), "ms"),
            "exec.kernel_us_per_read": (per(inclusive["kernel"] / 1e3, reads), "us"),
            "exec.kernel_ns_per_fetched_tuple": (per(inclusive["kernel"], fetched), "ns"),
            "exec.view_rows_scanned_per_read": (per(view_rows, len(summaries)), "tuples"),
            "storage.snapshot_pin_us_per_read": (per(inclusive["snapshot_pin"] / 1e3, reads), "us"),
            "storage.apply_ms_per_batch": (per(inclusive["apply"] / 1e6, batches), "ms"),
            "storage.admissible_us_per_update": (per(inclusive["admissible"] / 1e3, updates), "us"),
            "storage.index_observer_us_per_update": (per(inclusive["index_observer"] / 1e3, updates), "us"),
            "storage.histogram_us_per_update": (per(inclusive["histogram"] / 1e3, updates), "us"),
            "storage.snapshot_advance_ms_per_batch": (per(inclusive["snapshot_advance"] / 1e6, batches), "ms"),
            "service.maintenance.ms_per_batch": (per(inclusive["maintenance"] / 1e6, batches), "ms"),
            "service.maintenance.view_delta_rows_per_batch": (per(self.counts["view_delta_rows"], batches), "tuples"),
            "service.replans": (self.replans, "count"),
            "runtime.gc_pause_ms_per_1k_ops": (per(self.gc_ns / 1e6, len(self.kinds)) * 1000, "ms"),
        }
