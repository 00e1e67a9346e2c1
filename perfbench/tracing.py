"""Spans recorded from outside the program.

:class:`Recorder` replaces a public method on one object the benchmark
built with a timing shim, as an instance attribute: the program's code
and classes are untouched, and nothing is recorded on objects that were
not instrumented.  Each span is ``(layer, tag, start_ns, end_ns,
value)``: ``tag`` is the query (or service round) the client loop was
running when the span opened, ``value`` an optional count taken from
the call's result.  Spans stay in memory and are written out once, after
the measured phase.

:func:`layer_metrics` turns the spans into the per-layer metrics.  A
layer's self time is the measure of the union of its spans minus the
part covered by its child layers' spans (interval arithmetic, so spans
recorded on pool or task threads are handled like any other).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterable


class Recorder:
    """In-memory span sink plus the shims that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, Any]] = []
        #: Set by the client loop before each query (or service round).
        self.tag = 0

    def wrap(
        self,
        owner: object,
        attribute: str,
        layer: str,
        value: Callable[[Any], Any] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``."""
        inner = getattr(owner, attribute)
        spans = self.spans
        now = time.perf_counter_ns
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tag = recorder.tag
            start = now()
            try:
                result = inner(*args, **kwargs)
            except BaseException:
                spans.append((layer, tag, start, now(), None))
                raise
            spans.append(
                (layer, tag, start, now(), value(result) if value else None)
            )
            return result

        setattr(owner, attribute, traced)

    def instrument(self, mediator: Any, service: Any = None) -> None:
        """Hook every layer boundary reachable from ``mediator`` (and the
        serving layer in front of it)."""
        self.wrap(mediator, "parse", "sqlfe.parse")
        self.wrap(
            mediator.optimizer,
            "optimize",
            "optimizer.optimize",
            value=lambda r: (r.stats.candidates_considered, r.stats.candidates_pruned),
        )
        self.wrap(mediator.estimator, "estimate", "estimator.estimate")
        self.wrap(
            mediator.estimator.repository, "matches_providing", "scopes.rule_lookup"
        )
        self.wrap(mediator.executor, "execute", "executor.execute")
        self.wrap(mediator.executor.backend, "run_wave", "backend.run_wave")
        for name in mediator.catalog.wrapper_names():
            self.wrap(
                mediator.catalog.wrapper(name),
                "execute",
                f"wrapper.{name}",
                value=lambda r: len(r.rows),
            )
        self.wrap(mediator, "register", "registration.register")
        if service is not None:
            self.wrap(service, "submit", "service.submit", value=lambda t: t.ticket_id)
            # Every admitted query runs on a private executor the service
            # builds per ticket; hook it as the task is handed over.
            for method in ("start_now", "enqueue"):
                self._hook_tasks(service.scheduler, method)

    def _hook_tasks(self, scheduler: Any, method: str) -> None:
        handover = getattr(scheduler, method)

        def hooked(task: Any, policy: Any) -> Any:
            ticket_id = task.ticket.ticket_id
            self.wrap(
                task.executor,
                "execute",
                "executor.execute",
                value=lambda _result: ticket_id,
            )
            return handover(task, policy)

        setattr(scheduler, method, hooked)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def _self_ns(own: list, children: list) -> int:
    """Measure of ``own`` spans not covered by ``children`` spans."""
    return _union_ns(own + children) - _union_ns(children)


def layer_metrics(
    spans: list[tuple[str, int, int, int, Any]],
    queries: int,
    prefix_tags: int,
    prefix_queries: int,
    prefix_rows_returned: int,
    tickets: dict[str, float] | None = None,
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics and the deterministic counters.

    Times are per query over the whole traced phase (``queries``
    answers).  Counts are taken over the spans tagged below
    ``prefix_tags`` (the first ``prefix_queries`` queries, which every
    run executes), so they repeat exactly for a seed.  ``tickets`` maps
    a service ticket id to its wall latency in ms.
    """
    intervals: dict[str, list[tuple[int, int]]] = defaultdict(list)
    by_layer: dict[str, list] = defaultdict(list)
    for span in spans:
        intervals[span[0]].append((span[2], span[3]))
        by_layer[span[0]].append(span)
    # One layer per wrapper the run reached, named "wrapper.<name>".
    wrappers = sorted(layer for layer in by_layer if layer.startswith("wrapper."))
    ms_per_query = 1e-6 / max(1, queries)

    def per_query(total_ns: float) -> float:
        return total_ns * ms_per_query

    wrapper_intervals = [
        interval for layer in wrappers for interval in intervals[layer]
    ]
    lookups = intervals["scopes.rule_lookup"]
    estimates = intervals["estimator.estimate"]
    waves = intervals["backend.run_wave"]

    def prefix(layer: str) -> list:
        return [span for span in by_layer[layer] if span[1] < prefix_tags]

    optimized = prefix("optimizer.optimize")
    candidates = sum(span[4][0] for span in optimized if span[4] is not None)
    pruned = sum(span[4][1] for span in optimized if span[4] is not None)
    shipped_spans = [span for layer in wrappers for span in prefix(layer)]
    rows_shipped = sum(span[4] or 0 for span in shipped_spans)
    counters = {
        "scopes.rule_lookups": len(prefix("scopes.rule_lookup")),
        "estimator.estimate_calls": len(prefix("estimator.estimate")),
        "optimizer.candidates": candidates,
        "executor.submits": len(shipped_spans),
        "wrapper.rows_shipped": rows_shipped,
    }
    per_prefix_query = 1.0 / max(1, prefix_queries)
    metrics = {
        "sqlfe.parse_ms": per_query(
            sum(e - s for s, e in intervals["sqlfe.parse"])
        ),
        "optimizer.optimize_self_ms": per_query(
            _self_ns(intervals["optimizer.optimize"], estimates + lookups)
        ),
        "optimizer.candidates": candidates * per_prefix_query,
        "optimizer.pruned_ratio": pruned / candidates if candidates else 0.0,
        "estimator.estimate_self_ms": per_query(_self_ns(estimates, lookups)),
        "estimator.estimate_calls": counters["estimator.estimate_calls"]
        * per_prefix_query,
        "scopes.rule_lookup_ms": per_query(_union_ns(lookups)),
        "scopes.rule_lookups": counters["scopes.rule_lookups"] * per_prefix_query,
        "executor.compose_self_ms": per_query(
            _self_ns(intervals["executor.execute"], waves + wrapper_intervals)
        ),
        "executor.submits": counters["executor.submits"] * per_prefix_query,
        "executor.rows_shipped_per_row_returned": (
            rows_shipped / prefix_rows_returned if prefix_rows_returned else 0.0
        ),
        "backend.wave_overhead_ms": per_query(_self_ns(waves, wrapper_intervals)),
        "wrapper.rows_shipped": rows_shipped * per_prefix_query,
    }
    for layer in wrappers:
        metrics[f"{layer}.execute_ms"] = per_query(
            sum(e - s for s, e in intervals[layer])
        )
    registers = intervals["registration.register"]
    metrics["registration.register_ms"] = (
        sum(e - s for s, e in registers) * 1e-6 / len(registers) if registers else 0.0
    )
    metrics["service.submit_ms"] = 0.0
    metrics["service.wait_ms"] = 0.0
    if tickets:
        submits = {span[4]: span for span in by_layer["service.submit"]}
        executes = defaultdict(int)
        for span in by_layer["executor.execute"]:
            executes[span[4]] += span[3] - span[2]
        optimize_starts = sorted(intervals["optimizer.optimize"])
        waits = []
        for ticket_id, latency_ms in tickets.items():
            submit = submits[ticket_id]
            optimize_ns = sum(
                end - start
                for start, end in optimize_starts
                if submit[2] <= start and end <= submit[3]
            )
            waits.append(latency_ms - (optimize_ns + executes[ticket_id]) * 1e-6)
        metrics["service.submit_ms"] = sum(
            span[3] - span[2] for span in submits.values()
        ) * 1e-6 / len(submits)
        metrics["service.wait_ms"] = sum(waits) / len(waits)
    return metrics, counters
